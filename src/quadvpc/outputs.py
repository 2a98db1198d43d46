"""File emitters: per-run CSV, solver trace, summary JSON, and self-contained SVG plots.

The SVG plots are written directly (no plotting library) so repeated
runs with the same seed produce identical bytes; wall-clock solve times
are the only nondeterministic values in the CSV and are confined to the
``solve_ms`` column and the summary's ``timing`` section.  The solver
trace holds no wall-clock field.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .simulator import RunLog

CSV_HEADER = "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,su,sv,d,c,wx,wy,wz,solve_ms,kkt"
SOLVER_TRACE_HEADER = "run,t,sqp_iters,qp_iters,backtracks,slack_max,reason"

SUMMARY_SCHEMA_VERSION = 1


def write_run_csv(log: RunLog, path: str | Path) -> Path:
    """One row per control tick, fixed column order and float format."""
    path = Path(path)
    lines = [CSV_HEADER]
    for i in range(log.n_ticks):
        vals = [
            log.t[i],
            *log.p_w[i],
            *log.v_w[i],
            *log.q_wb[i],
            *log.s_c[i],
            log.d[i],
            *log.u[i],
            log.solve_ms[i],
            log.kkt[i],
        ]
        lines.append(",".join(f"{v:.12g}" for v in vals))
    _write_text(path, "\n".join(lines) + "\n")
    return path


def write_solver_trace_csv(logs: dict, path: str | Path) -> Path:
    """One row per control tick of each named run: how much work its solve took and how it ended."""
    path = Path(path)
    lines = [SOLVER_TRACE_HEADER]
    for name, log in logs.items():
        for i in range(log.n_ticks):
            lines.append(
                f"{name},{log.t[i]:.12g},{int(log.sqp_iters[i])},{int(log.qp_iters[i])},{int(log.backtracks[i])},"
                f"{log.slack_max[i]:.12g},{log.reason[i]}"
            )
    _write_text(path, "\n".join(lines) + "\n")
    return path


def write_summary_json(summary: dict, path: str | Path) -> Path:
    path = Path(path)
    payload = {"schema_version": SUMMARY_SCHEMA_VERSION, **summary}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Minimal SVG plotting


class SvgCanvas:
    """Fixed-size plot canvas with margins and data-space mapping."""

    WIDTH = 640
    HEIGHT = 480
    MARGIN = 56

    def __init__(self, xlim, ylim, title: str, xlabel: str, ylabel: str):
        self.x0, self.x1 = float(xlim[0]), float(xlim[1])
        self.y0, self.y1 = float(ylim[0]), float(ylim[1])
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.parts: list[str] = []
        w, h, m = self.WIDTH, self.HEIGHT, self.MARGIN
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        )
        self.parts.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>')
        self.parts.append(
            f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" fill="none" stroke="black"/>'
        )
        self.parts.append(
            f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>'
        )
        self.parts.append(
            f'<text x="{w / 2:.1f}" y="{h - 14}" text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
        self.parts.append(
            f'<text x="16" y="{h / 2:.1f}" text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {h / 2:.1f})">{ylabel}</text>'
        )
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            px, _ = self._map(xv, self.y0)
            _, py = self._map(self.x0, yv)
            self.parts.append(
                f'<text x="{px:.1f}" y="{h - m + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xv:.3g}</text>'
            )
            self.parts.append(
                f'<text x="{m - 6}" y="{py:.1f}" text-anchor="end" font-family="sans-serif" font-size="10">{yv:.3g}</text>'
            )

    def _map(self, x: float, y: float):
        w, h, m = self.WIDTH, self.HEIGHT, self.MARGIN
        px = m + (x - self.x0) / (self.x1 - self.x0) * (w - 2 * m)
        py = h - m - (y - self.y0) / (self.y1 - self.y0) * (h - 2 * m)
        return px, py

    def polyline(self, xs, ys, color: str, width: float = 1.5, label: str | None = None):
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (self._map(x, y) for x, y in zip(xs, ys)))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>')
        if label:
            idx = len([p for p in self.parts if "legend" in p])
            self.parts.append(
                f'<text class="legend" x="{self.WIDTH - self.MARGIN - 4}" y="{self.MARGIN + 14 + 14 * idx}" '
                f'text-anchor="end" font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
            )

    def scatter(self, xs, ys, colors, radius: float = 2.0):
        for x, y, c in zip(xs, ys, colors):
            px, py = self._map(x, y)
            self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" fill="{c}"/>')

    def marker(self, x: float, y: float, color: str = "black", size: float = 5.0):
        px, py = self._map(x, y)
        self.parts.append(
            f'<path d="M {px - size:.2f} {py:.2f} L {px:.2f} {py - size:.2f} L {px + size:.2f} {py:.2f} '
            f'L {px:.2f} {py + size:.2f} Z" fill="{color}"/>'
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        _write_text(path, "\n".join(self.parts) + "\n</svg>\n")
        return path


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _distance_color(d: float, d_lo: float, d_hi: float) -> str:
    frac = 0.0 if d_hi <= d_lo else (d - d_lo) / (d_hi - d_lo)
    frac = min(max(frac, 0.0), 1.0)
    r = int(40 + 215 * frac)
    b = int(255 - 215 * frac)
    return f"#{r:02x}30{b:02x}"


def plot_xy_paths(logs: list[RunLog], landmark_xy, path: str | Path, labels=None) -> Path:
    xs = np.concatenate([log.p_w[:, 0] for log in logs] + [[landmark_xy[0]]])
    ys = np.concatenate([log.p_w[:, 1] for log in logs] + [[landmark_xy[1]]])
    pad = 0.5
    canvas = SvgCanvas(
        (xs.min() - pad, xs.max() + pad), (ys.min() - pad, ys.max() + pad), "XY path", "x [m]", "y [m]"
    )
    for i, log in enumerate(logs):
        label = labels[i] if labels else None
        canvas.polyline(log.p_w[:, 0], log.p_w[:, 1], _COLORS[i % len(_COLORS)], label=label)
    canvas.marker(landmark_xy[0], landmark_xy[1])
    return canvas.save(path)


def plot_altitude(logs: list[RunLog], path: str | Path, labels=None) -> Path:
    zs = np.concatenate([log.p_w[:, 2] for log in logs] + [[0.0]])
    tmax = max([float(log.t[-1]) for log in logs if log.n_ticks] + [1.0])
    canvas = SvgCanvas((0.0, tmax), (zs.min() - 0.2, zs.max() + 0.2), "Altitude", "t [s]", "z [m]")
    for i, log in enumerate(logs):
        label = labels[i] if labels else None
        canvas.polyline(log.t, log.p_w[:, 2], _COLORS[i % len(_COLORS)], label=label)
    return canvas.save(path)


def plot_feature_scatter(logs: list[RunLog], bounds, path: str | Path) -> Path:
    """Feature positions in the image plane, colored by distance."""
    s = np.concatenate([log.s_c for log in logs])
    d = np.concatenate([log.d for log in logs])
    lo, hi = (float(d.min()), float(d.max())) if len(d) else (0.0, 1.0)
    canvas = SvgCanvas(
        (bounds.s_min[0] - 0.1, bounds.s_max[0] + 0.1),
        (bounds.s_min[1] - 0.1, bounds.s_max[1] + 0.1),
        "Feature distribution (color: near=blue, far=red)",
        "u",
        "v",
    )
    bx = [bounds.s_min[0], bounds.s_max[0], bounds.s_max[0], bounds.s_min[0], bounds.s_min[0]]
    by = [bounds.s_min[1], bounds.s_min[1], bounds.s_max[1], bounds.s_max[1], bounds.s_min[1]]
    canvas.polyline(bx, by, "#888888", width=1.0)
    canvas.scatter(s[:, 0], s[:, 1], [_distance_color(v, lo, hi) for v in d])
    return canvas.save(path)


def plot_error_curves(t, curves: dict, path: str | Path, title: str = "Prediction error") -> Path:
    ymax = max(float(np.max(v)) for v in curves.values()) or 1e-12
    canvas = SvgCanvas((0.0, float(t[-1])), (0.0, ymax * 1.1), title, "t [s]", "error norm")
    for i, (name, vals) in enumerate(sorted(curves.items())):
        canvas.polyline(t, vals, _COLORS[i % len(_COLORS)], label=name)
    return canvas.save(path)


def _json_num(v):
    if v is None:
        return None
    v = float(v)
    return v if np.isfinite(v) else None


def metrics_dict(m) -> dict:
    """JSON-friendly view of a Metrics record (non-finite values -> null)."""
    return {
        "outcome": m.outcome,
        "success": m.success,
        "rms_distance_err_m": _json_num(m.rms_distance_err),
        "max_altitude_dev_m": _json_num(m.max_altitude_dev),
        "min_border_margin": _json_num(m.min_border_margin),
        "final_distance_err_m": _json_num(m.final_distance_err),
        "final_image_err": _json_num(m.final_image_err),
        "mean_speed_mps": _json_num(m.mean_speed),
        "settle_time_x_s": _json_num(m.settle_time_x),
        "settle_time_y_s": _json_num(m.settle_time_y),
    }


def timing_dict(metrics_list) -> dict:
    """Wall-clock solve statistics; not reproducible across runs.

    The mean of the runs' mean solve times (0 for a run without ticks),
    the largest solve time, and the median and 95th percentile of the
    solve times of all ticks of all runs, pooled (0 when no tick was
    flown).
    """
    runs = [m.solve_ms for m in metrics_list]
    ticks = np.concatenate(runs)
    p50, p95 = np.percentile(ticks, [50.0, 95.0]) if len(ticks) else (0.0, 0.0)
    return {
        "mean_solve_ms": float(np.mean([np.mean(t) if len(t) else 0.0 for t in runs])),
        "max_solve_ms": float(np.max(ticks, initial=0.0)),
        "p50_solve_ms": float(p50),
        "p95_solve_ms": float(p95),
    }
