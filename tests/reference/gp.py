"""Golden twins of the global-placement kernels.

The original allocating implementations of the CG solver, the CG
objective assembly, the WA/LSE wirelength models, the bell density, the
pin table, rectangle rasterization, macro orientation and the
inflator's RUDY map, bodies unchanged.  A method of the optimized code
became a function of the same object, or a method of a subclass defined
here.
"""

from __future__ import annotations

import math

import numpy as np

from repro.db import Design
from repro.db.design import PinArrays
from repro.density.bell import BellDensity, bell_kernel
from repro.geometry import Orientation, transform_offset
from repro.gp.orient import incident_nets
from repro.optim.cg import CGResult
from repro.route.rudy import pin_density_map, rudy_map
from repro.wirelength.smooth import LogSumExp, WeightedAverage, _Compaction


# ----------------------------------------------------------------------
# optim.cg
# ----------------------------------------------------------------------
def minimize_cg_reference(
    value_grad,
    x0: np.ndarray,
    *,
    max_iter: int = 100,
    step_init: float = 1.0,
    step_max: float | None = None,
    rel_tol: float = 1e-4,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 12,
    project=None,
    record: bool = False,
) -> CGResult:
    """The original allocating implementation, kept verbatim."""
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    f, g = value_grad(x)
    d = -g
    alpha = float(step_init)
    trajectory = [f] if record else []
    converged = False
    iterations = 0
    last_step = 0.0
    for it in range(max_iter):
        iterations = it + 1
        dinf = float(np.max(np.abs(d))) if d.size else 0.0
        if dinf <= 0.0:
            converged = True
            break
        d_hat = d / dinf
        slope = float(np.dot(g, d_hat))
        if slope >= 0.0:  # not a descent direction: restart on -g
            d = -g
            dinf = float(np.max(np.abs(d)))
            if dinf <= 0.0:
                converged = True
                break
            d_hat = d / dinf
            slope = float(np.dot(g, d_hat))
            if slope >= 0.0:
                converged = True
                break
        # Backtracking Armijo search in absolute distance units.
        step = alpha
        if step_max is not None:
            step = min(step, step_max)
        accepted = False
        f_new = f
        x_new = x
        for _ in range(max_backtracks):
            x_try = x + step * d_hat
            if project is not None:
                x_try = project(x_try)
            f_try, g_try = value_grad(x_try)
            if f_try <= f + armijo_c * step * slope or f_try < f:
                accepted = True
                x_new, f_new, g_new = x_try, f_try, g_try
                break
            step *= backtrack
        if not accepted:
            converged = True
            break
        last_step = step
        # Adapt the trial step: grow after easy acceptance, keep otherwise.
        alpha = step * (2.0 if step >= alpha * 0.99 else 1.0)
        if step_max is not None:
            alpha = min(alpha, step_max)
        # Polak-Ribiere+ update.
        gg = float(np.dot(g, g))
        beta = 0.0
        if gg > 0:
            beta = max(0.0, float(np.dot(g_new, g_new - g)) / gg)
        d = -g_new + beta * d
        rel_drop = abs(f - f_new) / max(abs(f), 1e-12)
        x, f, g = x_new, f_new, g_new
        if record:
            trajectory.append(f)
        if rel_drop < rel_tol:
            converged = True
            break
    grad_norm = float(np.linalg.norm(g)) if g.size else 0.0
    return CGResult(
        x=x,
        value=f,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
        final_step=last_step,
        nonfinite=not (math.isfinite(f) and math.isfinite(grad_norm)),
    )


# ----------------------------------------------------------------------
# gp.placer: the CG objective
# ----------------------------------------------------------------------
def objective_reference(wl_model, density, fence, state, cx, cy, mov, bounds):
    """``(objective, project)`` like :func:`repro.gp.placer._objective`,
    with the original allocating assembly.

    The reference CG keeps ``g`` across calls, so it needs these fresh
    gradient arrays, not the optimized objective's reused buffer.
    """
    m = len(mov)
    lo_x, hi_x, lo_y, hi_y = bounds

    def unpack(v: np.ndarray) -> None:
        cx[mov] = v[:m]
        cy[mov] = v[m:]

    # The original objective assembly, kept verbatim: fresh copies
    # in the projection, full-size gradient temporaries, and a
    # concatenate per evaluation.
    def project(v: np.ndarray) -> np.ndarray:
        out = v.copy()
        out[:m] = np.clip(out[:m], lo_x, hi_x)
        out[m:] = np.clip(out[m:], lo_y, hi_y)
        return out

    def objective(v: np.ndarray):
        unpack(v)
        wl_v, wl_gx, wl_gy = wl_model.value_grad(cx, cy)
        d_v, d_gx, d_gy = density.value_grad(cx, cy)
        f = wl_v + state["lam"] * d_v
        gx = wl_gx + state["lam"] * d_gx
        gy = wl_gy + state["lam"] * d_gy
        if fence.active:
            f_v, f_gx, f_gy = fence.value_grad(cx, cy)
            f += state["mu"] * f_v
            gx += state["mu"] * f_gx
            gy += state["mu"] * f_gy
        return f, np.concatenate([gx[mov], gy[mov]])

    return objective, project


# ----------------------------------------------------------------------
# wirelength.smooth
# ----------------------------------------------------------------------
def compact_pins_reference(net_ptr, net_weight) -> _Compaction:
    """The original per-net construction loop, kept as the golden path."""
    counts = np.diff(net_ptr)
    active = counts >= 2  # single-pin nets contribute nothing
    starts = net_ptr[:-1][active]
    weights = net_weight[active]
    active_counts = counts[active]
    pin_sel = np.concatenate(
        [
            np.arange(s, s + c)
            for s, c in zip(starts, active_counts)
        ]
    ).astype(np.int64) if len(starts) else np.empty(0, dtype=np.int64)
    pin_net = np.repeat(
        np.arange(len(starts), dtype=np.int64), active_counts
    )
    cstarts = np.concatenate([[0], np.cumsum(active_counts)[:-1]]).astype(
        np.int64
    ) if len(starts) else np.empty(0, dtype=np.int64)
    return _Compaction(active, starts, weights, pin_sel, pin_net, cstarts)


class _ReferenceSmooth:
    """The original allocating evaluation path of ``SmoothWirelength``.

    Mixed in ahead of the WA/LSE classes, so their buffered evaluation
    methods are shadowed by these; the per-axis ``_axis_value_grad`` of
    each subclass below is that model's original kernel.  ``_bind`` and
    the per-net reductions are the originals too: the twin computes on
    the pin-table (CSR) layout with ``np.*.reduceat`` and never builds or
    reads the optimized model's degree-major table.
    """

    def __init__(self, arrays, num_nodes: int, gamma: float):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.num_nodes = int(num_nodes)
        self.gamma = float(gamma)
        self._bind(arrays, compact_pins_reference(arrays.net_ptr, arrays.net_weight))

    def _bind(self, arrays, comp: _Compaction) -> None:
        self.arrays = arrays
        self._comp = comp
        self._active = comp.active
        self._starts = comp.starts
        self._weights = comp.weights
        self._pin_sel = comp.pin_sel
        self._pin_net = comp.pin_net
        self._cstarts = comp.cstarts
        self._pin_node = arrays.pin_node[self._pin_sel]
        self._pin_dx = arrays.pin_dx[self._pin_sel]
        self._pin_dy = arrays.pin_dy[self._pin_sel]
        # Per-pin net weight, constant over positions.
        self._wpin = self._weights[self._pin_net] if len(self._starts) else None
        self._bufs: dict = {}
        self._probe = None

    def _net_max(self, p):
        return np.maximum.reduceat(p, self._cstarts)

    def _net_min(self, p):
        return np.minimum.reduceat(p, self._cstarts)

    def _net_sum(self, p):
        return np.add.reduceat(p, self._cstarts)

    def rebind(self, arrays):
        """The placer's model rebuild after an orientation change: a
        fresh model over ``arrays`` with the current ``gamma``."""
        self.__init__(arrays, self.num_nodes, self.gamma)
        return self

    def _value_grad_reference(self, cx: np.ndarray, cy: np.ndarray):
        """The original allocating evaluation path, verbatim."""
        grad_x = np.zeros(self.num_nodes)
        grad_y = np.zeros(self.num_nodes)
        if len(self._starts) == 0:
            return 0.0, grad_x, grad_y
        px = cx[self._pin_node] + self._pin_dx
        py = cy[self._pin_node] + self._pin_dy
        vx, gx = self._axis_value_grad(px)
        vy, gy = self._axis_value_grad(py)
        value = float(np.sum(self._weights * (vx + vy)))
        wpin = self._weights[self._pin_net]
        np.add.at(grad_x, self._pin_node, wpin * gx)
        np.add.at(grad_y, self._pin_node, wpin * gy)
        return value, grad_x, grad_y

    value_grad = _value_grad_reference

    def value_probe(self, cx: np.ndarray, cy: np.ndarray) -> float:
        f, gx, gy = self.value_grad(cx, cy)
        self._probe = ("full", gx, gy)
        return f

    def finish_grad(self):
        return self._probe[1], self._probe[2]

    def value(self, cx: np.ndarray, cy: np.ndarray) -> float:
        if len(self._starts) == 0:
            return 0.0
        px = cx[self._pin_node] + self._pin_dx
        py = cy[self._pin_node] + self._pin_dy
        vx, _ = self._axis_value_grad(px)
        vy, _ = self._axis_value_grad(py)
        return float(np.sum(self._weights * (vx + vy)))


class ReferenceLogSumExp(_ReferenceSmooth, LogSumExp):
    def _axis_value_grad(self, p: np.ndarray):
        g = self.gamma
        hi = self._net_max(p)[self._pin_net]
        lo = self._net_min(p)[self._pin_net]
        e_pos = np.exp((p - hi) / g)
        e_neg = np.exp((lo - p) / g)
        s_pos = self._net_sum(e_pos)
        s_neg = self._net_sum(e_neg)
        value = (
            g * (np.log(s_pos) + np.log(s_neg))
            + self._net_max(p)
            - self._net_min(p)
        )
        grad = e_pos / s_pos[self._pin_net] - e_neg / s_neg[self._pin_net]
        return value, grad


class ReferenceWeightedAverage(_ReferenceSmooth, WeightedAverage):
    def _axis_value_grad(self, p: np.ndarray):
        g = self.gamma
        hi = self._net_max(p)[self._pin_net]
        lo = self._net_min(p)[self._pin_net]
        # Max side, shifted by the net max for stability.
        e_pos = np.exp((p - hi) / g)
        s_pos = self._net_sum(e_pos)
        t_pos = self._net_sum(p * e_pos)
        f_pos = t_pos / s_pos
        # Min side, shifted by the net min.
        e_neg = np.exp((lo - p) / g)
        s_neg = self._net_sum(e_neg)
        t_neg = self._net_sum(p * e_neg)
        f_neg = t_neg / s_neg
        value = f_pos - f_neg
        sp = s_pos[self._pin_net]
        tp = t_pos[self._pin_net]
        sn = s_neg[self._pin_net]
        tn = t_neg[self._pin_net]
        grad_pos = e_pos * ((1.0 + p / g) * sp - tp / g) / (sp * sp)
        grad_neg = e_neg * ((1.0 - p / g) * sn + tn / g) / (sn * sn)
        return value, grad_pos - grad_neg


def make_model_reference(kind: str, arrays, num_nodes: int, gamma: float):
    """:func:`repro.wirelength.make_model` over the reference models."""
    kind = kind.lower()
    if kind == "wa":
        return ReferenceWeightedAverage(arrays, num_nodes, gamma)
    if kind == "lse":
        return ReferenceLogSumExp(arrays, num_nodes, gamma)
    raise ValueError(f"unknown wirelength model {kind!r}")


# ----------------------------------------------------------------------
# density.bell
# ----------------------------------------------------------------------
class ReferenceBellDensity(BellDensity):
    """The original allocating potential and gradient evaluation."""

    def _potential_reference(self, cx: np.ndarray, cy: np.ndarray):
        """The original allocating potential evaluation, verbatim."""
        grid = self.grid
        phi = grid.zeros()
        small_tables = None
        if len(self._small):
            idx = self._small
            u = cx[idx]
            v = cy[idx]
            w = self.widths[idx]
            h = self.heights[idx]
            wb, hb = grid.bin_w, grid.bin_h
            rx = w / 2.0 + 2.0 * wb
            ry = h / 2.0 + 2.0 * hb
            ix0 = np.ceil((u - rx - grid.area.xl) / wb - 0.5).astype(np.int64)
            iy0 = np.ceil((v - ry - grid.area.yl) / hb - 0.5).astype(np.int64)
            ks = np.arange(self._kx)
            ls = np.arange(self._ky)
            ix_all = ix0[:, None] + ks[None, :]
            iy_all = iy0[:, None] + ls[None, :]
            bin_cx = grid.area.xl + (ix_all + 0.5) * wb
            bin_cy = grid.area.yl + (iy_all + 0.5) * hb
            px, dpx = bell_kernel(u[:, None] - bin_cx, w[:, None], wb)
            py, dpy = bell_kernel(v[:, None] - bin_cy, h[:, None], hb)
            valid_x = (ix_all >= 0) & (ix_all < grid.nx)
            valid_y = (iy_all >= 0) & (iy_all < grid.ny)
            px = np.where(valid_x, px, 0.0)
            dpx = np.where(valid_x, dpx, 0.0)
            py = np.where(valid_y, py, 0.0)
            dpy = np.where(valid_y, dpy, 0.0)
            sum_px = px.sum(axis=1)
            sum_py = py.sum(axis=1)
            mass = sum_px * sum_py
            norm = np.where(mass > 0, self.areas[idx] / np.maximum(mass, 1e-30), 0.0)
            # One flattened scatter instead of Kx*Ky passes.
            flat = (
                np.clip(ix_all, 0, grid.nx - 1)[:, :, None] * grid.ny
                + np.clip(iy_all, 0, grid.ny - 1)[:, None, :]
            )
            contrib = (norm[:, None] * px)[:, :, None] * py[:, None, :]
            np.add.at(phi.reshape(-1), flat.reshape(-1), contrib.reshape(-1))
            small_tables = (idx, flat, px, dpx, py, dpy, norm)
        large_tables = []
        for i in self._large:
            entry = self._large_node_kernel(i, cx[i], cy[i])
            if entry is None:
                continue
            sl_x, sl_y, px, dpx, py, dpy, norm = entry
            phi[np.ix_(sl_x, sl_y)] += norm * np.outer(px, py)
            large_tables.append((i, sl_x, sl_y, px, dpx, py, dpy, norm))
        return phi, small_tables, large_tables

    def _large_node_kernel(self, i: int, u: float, v: float):
        grid = self.grid
        wb, hb = grid.bin_w, grid.bin_h
        w, h = self.widths[i], self.heights[i]
        rx = w / 2.0 + 2.0 * wb
        ry = h / 2.0 + 2.0 * hb
        ix0 = max(0, int(np.ceil((u - rx - grid.area.xl) / wb - 0.5)))
        ix1 = min(grid.nx - 1, int(np.floor((u + rx - grid.area.xl) / wb - 0.5)))
        iy0 = max(0, int(np.ceil((v - ry - grid.area.yl) / hb - 0.5)))
        iy1 = min(grid.ny - 1, int(np.floor((v + ry - grid.area.yl) / hb - 0.5)))
        if ix1 < ix0 or iy1 < iy0:
            return None
        sl_x = np.arange(ix0, ix1 + 1)
        sl_y = np.arange(iy0, iy1 + 1)
        bin_cx = grid.area.xl + (sl_x + 0.5) * wb
        bin_cy = grid.area.yl + (sl_y + 0.5) * hb
        px, dpx = bell_kernel(u - bin_cx, w, wb)
        py, dpy = bell_kernel(v - bin_cy, h, hb)
        mass = px.sum() * py.sum()
        if mass <= 0:
            return None
        norm = self.areas[i] / mass
        return sl_x, sl_y, px, dpx, py, dpy, norm

    def _value_grad_reference(self, cx: np.ndarray, cy: np.ndarray):
        """The original allocating gradient evaluation, verbatim."""
        phi, small_tables, large_tables = self._potential_reference(cx, cy)
        psi = phi - self.target()
        value = float(np.sum(psi * psi))
        grad_x = np.zeros(self.num_nodes)
        grad_y = np.zeros(self.num_nodes)
        # The kernel mass sum_k p(k) varies with a node's phase relative to
        # the bin grid, so the normalization N = area / (Sx * Sy) is itself
        # position dependent; including dN makes the gradient exact.
        if small_tables is not None:
            idx, flat, px, dpx, py, dpy, norm = small_tables
            field = psi.reshape(-1)[flat]  # (n, Kx, Ky), one gather
            fy = field * py[:, None, :]
            gx = (fy * dpx[:, :, None]).sum(axis=(1, 2))
            gpp = (fy * px[:, :, None]).sum(axis=(1, 2))
            gy = (field * px[:, :, None] * dpy[:, None, :]).sum(axis=(1, 2))
            sum_px = np.maximum(px.sum(axis=1), 1e-30)
            sum_py = np.maximum(py.sum(axis=1), 1e-30)
            sum_dpx = dpx.sum(axis=1)
            sum_dpy = dpy.sum(axis=1)
            grad_x[idx] = 2.0 * norm * (gx - gpp * sum_dpx / sum_px)
            grad_y[idx] = 2.0 * norm * (gy - gpp * sum_dpy / sum_py)
        for i, sl_x, sl_y, px, dpx, py, dpy, norm in large_tables:
            field = psi[np.ix_(sl_x, sl_y)]
            gpp = float(px @ field @ py)
            sum_px = max(float(px.sum()), 1e-30)
            sum_py = max(float(py.sum()), 1e-30)
            grad_x[i] = 2.0 * norm * (
                float(dpx @ field @ py) - gpp * float(dpx.sum()) / sum_px
            )
            grad_y[i] = 2.0 * norm * (
                float(px @ field @ dpy) - gpp * float(dpy.sum()) / sum_py
            )
        return value, grad_x, grad_y

    potential = _potential_reference
    value_grad = _value_grad_reference

    def value_probe(self, cx: np.ndarray, cy: np.ndarray) -> float:
        value, gx, gy = self.value_grad(cx, cy)
        self._probe = ("full", gx, gy)
        return value

    def finish_grad(self):
        return self._probe[1], self._probe[2]


# ----------------------------------------------------------------------
# db.design / grids.bins
# ----------------------------------------------------------------------
def pin_arrays_reference(self: Design) -> PinArrays:
    """``Design.pin_arrays`` with the original per-pin loop."""
    key = (
        self._topology_version,
        [node.orientation for node in self.nodes],
        [net.weight for net in self.nets],
    )
    cached = getattr(self, "_pin_cache_reference", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    num_pins = self.num_pins
    pin_node = np.empty(num_pins, dtype=np.int32)
    pin_dx = np.empty(num_pins)
    pin_dy = np.empty(num_pins)
    net_ptr = np.empty(len(self.nets) + 1, dtype=np.int64)
    net_weight = np.empty(len(self.nets))
    k = 0
    net_ptr[0] = 0
    for i, net in enumerate(self.nets):
        for pin in net.pins:
            node = self.nodes[pin.node]
            dx, dy = transform_offset(pin.dx, pin.dy, node.orientation)
            pin_node[k] = pin.node
            pin_dx[k] = dx
            pin_dy[k] = dy
            k += 1
        net_ptr[i + 1] = k
        net_weight[i] = net.weight
    arrays = PinArrays(pin_node, pin_dx, pin_dy, net_ptr, net_weight)
    self._pin_cache_reference = (key, arrays)
    return arrays


def rasterize_rects_reference(self, xl, yl, xh, yh, values=None, *, out=None) -> np.ndarray:
    """``BinGrid.rasterize_rects`` with the original window sweep."""
    xl = np.asarray(xl, dtype=float)
    yl = np.asarray(yl, dtype=float)
    xh = np.asarray(xh, dtype=float)
    yh = np.asarray(yh, dtype=float)
    vals = np.ones_like(xl) if values is None else np.asarray(values, dtype=float)
    if out is None:
        grid = self.zeros()
    else:
        if out.shape != (self.nx, self.ny):
            raise ValueError(
                f"out has shape {out.shape}, grid is ({self.nx}, {self.ny})"
            )
        grid = out
        grid.fill(0.0)
    if len(xl) == 0:
        return grid
    cxl = np.clip(xl, self.area.xl, self.area.xh)
    cyl = np.clip(yl, self.area.yl, self.area.yh)
    cxh = np.clip(xh, self.area.xl, self.area.xh)
    cyh = np.clip(yh, self.area.yl, self.area.yh)
    areas = (cxh - cxl) * (cyh - cyl)
    keep = areas > 0
    if not keep.any():
        return grid
    cxl, cyl, cxh, cyh, dens = (
        cxl[keep],
        cyl[keep],
        cxh[keep],
        cyh[keep],
        vals[keep],
    )
    ix0 = np.floor((cxl - self.area.xl) / self.bin_w).astype(np.int64)
    iy0 = np.floor((cyl - self.area.yl) / self.bin_h).astype(np.int64)
    ix0 = np.clip(ix0, 0, self.nx - 1)
    iy0 = np.clip(iy0, 0, self.ny - 1)
    span_x = int(np.max(np.ceil((cxh - self.area.xl) / self.bin_w) - ix0)) + 1
    span_y = int(np.max(np.ceil((cyh - self.area.yl) / self.bin_h) - iy0)) + 1
    span_x = max(1, min(span_x, self.nx + 1))
    span_y = max(1, min(span_y, self.ny + 1))
    for kx in range(span_x):
        ix = ix0 + kx
        in_x = ix < self.nx
        bxl = self.area.xl + ix * self.bin_w
        wx = np.minimum(bxl + self.bin_w, cxh) - np.maximum(bxl, cxl)
        wx = np.maximum(wx, 0.0)
        for ky in range(span_y):
            iy = iy0 + ky
            in_y = iy < self.ny
            byl = self.area.yl + iy * self.bin_h
            wy = np.minimum(byl + self.bin_h, cyh) - np.maximum(byl, cyl)
            wy = np.maximum(wy, 0.0)
            mass = dens * wx * wy
            ok = in_x & in_y & (mass > 0)
            if ok.any():
                np.add.at(grid, (ix[ok], iy[ok]), mass[ok])
    return grid


# ----------------------------------------------------------------------
# gp.orient
# ----------------------------------------------------------------------
def _net_hpwl_with_orientation(design, net, macro_index, orient) -> float:
    """HPWL of ``net`` if the macro took ``orient`` (about its centre)."""
    macro = design.nodes[macro_index]  # noqa: F841
    xs, ys = [], []
    for pin in net.pins:
        node = design.nodes[pin.node]
        if pin.node == macro_index:
            dx, dy = transform_offset(pin.dx, pin.dy, orient)
        else:
            dx, dy = transform_offset(pin.dx, pin.dy, node.orientation)
        xs.append(node.cx + dx)
        ys.append(node.cy + dy)
    if not xs:
        return 0.0
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def best_orientation(design: Design, node, candidates=None):
    """The orientation minimizing incident HPWL and its cost.

    Only 90-degree-compatible candidates are considered by default (all
    eight orientations; square macros gain from every one, non-square
    macros from rotations too since placement is still global/overlappy).
    """
    if candidates is None:
        candidates = list(Orientation)
    nets = incident_nets(design, node)
    best = node.orientation
    best_cost = float("inf")
    for orient in candidates:
        cost = sum(
            design.nets[n].weight
            * _net_hpwl_with_orientation(design, design.nets[n], node.index, orient)
            for n in nets
        )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = orient
    return best, best_cost


# ----------------------------------------------------------------------
# gp.inflation
# ----------------------------------------------------------------------
def inflator_rudy_map_reference(self, arrays, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """``CongestionInflator._rudy_map``'s original allocating path.

    Its ``rudy_map`` call rasterizes through ``BinGrid.rasterize_rects``,
    which :func:`tests.reference.use_reference` swaps for the sweep twin.
    """
    grid = self.spec.grid
    # Original allocating path, kept verbatim for golden mode.
    demand = rudy_map(arrays, cx, cy, grid, wire_width=self.wire_width)
    pins = pin_density_map(arrays, cx, cy, grid)
    self._calibrate(demand, pins)
    demand = demand + self.pin_weight * self._pin_norm * pins
    with np.errstate(divide="ignore", invalid="ignore"):
        cong = np.where(
            self.supply > 0, demand / np.maximum(self.supply, 1e-12), 0.0
        )
    return cong
