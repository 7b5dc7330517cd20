"""Static SVG overlay of ground-truth and predicted trajectories."""

from .metrics import TrajectorySet

GT_COLOR = "#2e8b57"    # green
PRED_COLOR = "#d62728"  # red


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _bounds(sets: list[TrajectorySet]) -> tuple[float, float, float, float]:
    sets = [ts for ts in sets if len(ts)]
    if not sets:
        return 0.0, 0.0, 1.0, 1.0
    return (min(float(ts.x.min()) for ts in sets), min(float(ts.y.min()) for ts in sets),
            max(float(ts.x.max()) for ts in sets), max(float(ts.y.max()) for ts in sets))


def _group(ts: TrajectorySet, color: str, radius: float) -> list[str]:
    rows = [f'<g stroke="{color}" fill="none" stroke-width="1">']
    for span in ts.slices.values():
        xs, ys = ts.x[span].tolist(), ts.y[span].tolist()
        if len(xs) > 1:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
            rows.append(f'<polyline points="{coords}"/>')
        rows.append(f'<circle cx="{_fmt(xs[-1])}" cy="{_fmt(ys[-1])}" r="{_fmt(radius)}" '
                    f'fill="{color}" stroke="none"/>')
    rows.append("</g>")
    return rows


def render_overlay(gt: TrajectorySet, pred: TrajectorySet,
                   width: float | None = None, height: float | None = None) -> str:
    """SVG text with ground truth in green and predictions in red."""
    if width is None or height is None:
        x0, y0, x1, y1 = _bounds([gt, pred])
        pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
        x0, y0 = x0 - pad, y0 - pad
        w, h = (x1 - x0) + pad, (y1 - y0) + pad
    else:
        x0, y0, w, h = 0.0, 0.0, float(width), float(height)
    rows = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}" width="{_fmt(w)}" height="{_fmt(h)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>',
    ]
    rows += _group(gt, GT_COLOR, 1.5)
    rows += _group(pred, PRED_COLOR, 1.0)
    rows.append("</svg>")
    return "\n".join(rows) + "\n"
