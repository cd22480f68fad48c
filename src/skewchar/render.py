"""ASCII and SVG renderers for path families.  Presentation only."""

from .paths import DIAG, DOWN, OHORIZ, RIGHT, UP, _family_bbox
from .symfunc import CharacterFamily


def _bbox(pf, pad=1):
    minx, maxx, miny, maxy = _family_bbox(pf)
    return minx - pad, maxx + pad, miny - pad, maxy + pad


def ascii_render(pf):
    """Plain-text picture: o path vertices, -- | / steps, ~ arcs, * the
    boundary line y = x-1."""
    minx, maxx, miny, maxy = _bbox(pf)
    width = (maxx - minx) * 3 + 1
    rows = [[" "] * width for _ in range((maxy - miny) * 2 + 1)]

    def put(x, y, ch, dx=0):
        col = (x - minx) * 3 + dx
        row = (maxy - y) * 2
        if 0 <= row < len(rows) and 0 <= col < width:
            rows[row][col] = ch

    def put_between(x, y, ch, dx=0):
        col = (x - minx) * 3 + dx
        row = (maxy - y) * 2 + 1
        if 0 <= row < len(rows) and 0 <= col < width:
            rows[row][col] = ch

    on_boundary = pf.model.family is not CharacterFamily.GL
    for x in range(minx, maxx + 1):
        for y in range(miny, maxy + 1):
            if on_boundary and y == x - 1:
                put(x, y, "*")
            else:
                put(x, y, ".")
    for p in pf.paths:
        for (x, y), s in zip(p.vertices, p.steps):
            if s is RIGHT:
                put(x, y, "-", 1)
                put(x, y, "-", 2)
            elif s is UP:
                put_between(x, y + 1, "|")
            elif s is DOWN:
                put_between(x, y, "|")
            elif s is DIAG:
                put_between(x + 1, y + 1, "/", -1)
            elif s is OHORIZ:
                for dx in range(1, 6):
                    put(x, y, "~", dx)
        for x, y in p.vertices:
            put(x, y, "o")
    return "\n".join("".join(r).rstrip() for r in rows if "".join(r).strip())


def svg_render(pf, scale=24):
    """Standalone SVG with unit steps as lines, arcs for o-horizontal steps
    and the red boundary line y = x-1."""
    minx, maxx, miny, maxy = _bbox(pf)

    def sx(x):
        return (x - minx) * scale + scale

    def sy(y):
        return (maxy - y) * scale + scale

    w = sx(maxx) + scale
    h = sy(miny) + scale
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w, h, w, h)
    ]
    out.append('<rect width="100%" height="100%" fill="white"/>')
    for x in range(minx, maxx + 1):
        for y in range(miny, maxy + 1):
            out.append(
                '<circle cx="%d" cy="%d" r="1.5" fill="#cccccc"/>' % (sx(x), sy(y))
            )
    if pf.model.family is not CharacterFamily.GL:
        # boundary y = x-1 clipped to the box
        x0, x1 = minx, maxx + 1
        out.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="red" stroke-width="1.5"/>'
            % (sx(x0), sy(x0 - 1), sx(x1), sy(x1 - 1))
        )
    for p in pf.paths:
        pts = p.vertices
        for (x, y), (nx, ny), s in zip(pts, pts[1:], p.steps):
            if s is OHORIZ:
                out.append(
                    '<path d="M %d %d Q %d %d %d %d" fill="none" stroke="black" '
                    'stroke-width="2"/>'
                    % (sx(x), sy(y), sx(x + 1), sy(y) - scale, sx(nx), sy(ny))
                )
            else:
                out.append(
                    '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" '
                    'stroke-width="2"/>' % (sx(x), sy(y), sx(nx), sy(ny))
                )
        for x, y in (pts[0], pts[-1]):
            out.append('<circle cx="%d" cy="%d" r="3" fill="black"/>' % (sx(x), sy(y)))
    out.append("</svg>")
    return "\n".join(out)
