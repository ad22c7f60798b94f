"""The bell-shaped density potential and its analytic gradient.

For a node of width ``w`` and a bin of width ``wb``, the one-dimensional
kernel over the centre distance ``d`` is::

    p(d) = 1 - a*d^2                     for 0 <= d <= w/2 + wb
         = b*(d - (w/2 + 2*wb))^2        for w/2 + wb <= d <= w/2 + 2*wb
         = 0                             beyond

    a = 4 / ((w + 2*wb) * (w + 4*wb))
    b = 2 / (wb * (w + 4*wb))

which is continuous and continuously differentiable at both joints.  A
node's bin potential is the product of the x and y kernels, normalized so
its total mass equals the node area; the placement objective adds
``sum_b (phi_b - target_b)^2`` as a penalty.

Nodes whose kernel support spans few bins ("small": standard cells) are
processed with fixed-size vectorized window sweeps; macros take a per-node
sliced path.  Fixed objects enter through the *target*: their exact overlap
is subtracted from each bin's free capacity.

Hot-path layout: this is the single most evaluated kernel of global
placement (every CG line-search probe computes one potential; only
accepted probes go on to the gradient), so it keeps all window-sweep
intermediates in preallocated buffers and precomputes the per-node
kernel coefficients once.  The small-node window sweep runs node-minor
throughout, one row per window cell and one column per node, so every
elementwise op and every sum runs one long inner loop.  A probe builds
the x and y windows of all small nodes as one ``(kx+ky, n)`` batch; it
evaluates the kernel values only, with no beyond-support mask (see
:meth:`BellDensity._bell_value`) and with off-grid cells sent to
distance +inf instead of masked afterwards.  The per-node kernel sums,
and the gradient's window and derivative sums, go through
:func:`row_sums`, which replays the order ``ndarray.sum`` gives a
node's contiguous row on whole node-minor rows.  The per-bin
contributions are copied once to node-major order and scattered with
one ``np.bincount`` (bit-identical to ``np.add.at``, several times
faster), because each bin must sum its cells in node order.  The
kernel derivatives wait for the gradient pass, which gathers the
field through a contiguous node-minor window index and reuses the
probe's kernel sums.  Gathers into buffers pass ``mode="clip"`` (with
``out``, the default mode gathers into a temporary first), and every
index they read is in range.  Large nodes are walked with plain-slice
views and a lean scalar-coefficient kernel.  Every product and sum
keeps the operands and reduction order of the original allocating
implementation, kept as a golden twin under ``tests/reference/``, so
the two agree to the last bit (``tests/test_gp_perf_equiv.py`` and
``tests/test_density.py``).
"""

from __future__ import annotations

import numpy as np

from repro.grids import BinGrid

# Window sweeps cost O(K^2) vectorized passes; nodes needing more go to the
# per-node path.
_MAX_WINDOW = 8


def row_sums(table: np.ndarray, out: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """``ndarray.sum`` of each node's row, bit for bit, from a node-minor table.

    ``table`` is ``(K, n)``: column ``i`` holds the K terms of node
    ``i``'s row.  ``out`` gets, in every bit, what
    ``np.ascontiguousarray(table.T).sum(axis=1)`` gives, while each step
    runs one long inner loop over all nodes instead of one K-term loop
    per node.  ``acc`` is an ``(8, n)`` scratch buffer.

    NumPy reduces a contiguous float64 row from the identity +0.  Below 8
    terms it adds them left to right.  From 8 terms on it keeps 8
    interleaved partial sums ``p0..p7``, combines them as
    ``((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7))`` and adds the leftover terms
    left to right.  The identity turns a -0.0 result into +0.
    """
    k = len(table)
    if k < 8:
        np.copyto(out, table[0])
        for row in table[1:]:
            out += row
    else:
        full = k - k % 8
        np.copyto(acc, table[:8])
        for i in range(8, full, 8):
            acc += table[i : i + 8]
        pairs = acc[0::2]
        np.add(pairs, acc[1::2], out=pairs)  # p0+p1, p2+p3, p4+p5, p6+p7
        quads = acc[0::4]
        np.add(quads, acc[2::4], out=quads)
        np.add(acc[0], acc[4], out=out)
        for row in table[full:]:
            out += row
    out += 0.0
    return out


def bell_kernel(d, w, wb):
    """The 1-D bell kernel ``p`` and derivative ``dp/dd`` at distances ``d``.

    ``d`` may be signed; the kernel is even and the derivative returned is
    with respect to the *signed* distance (node centre minus bin centre).
    """
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    sign = np.sign(d)
    ad = np.abs(d)
    r1 = w / 2.0 + wb
    r2 = w / 2.0 + 2.0 * wb
    a = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb))
    b = 2.0 / (wb * (w + 4.0 * wb))
    inner = ad <= r1
    outer = (ad > r1) & (ad <= r2)
    p = np.zeros_like(ad)
    dp = np.zeros_like(ad)
    p = np.where(inner, 1.0 - a * ad * ad, p)
    dp = np.where(inner, -2.0 * a * ad, dp)
    p = np.where(outer, b * (ad - r2) ** 2, p)
    dp = np.where(outer, 2.0 * b * (ad - r2), dp)
    return p, dp * sign


class BellDensity:
    """Vectorized bell-shape density potential over a :class:`BinGrid`."""

    def __init__(
        self,
        grid: BinGrid,
        widths: np.ndarray,
        heights: np.ndarray,
        movable_mask: np.ndarray,
        fixed_rects=(),
        target_density: float | None = None,
        target_scale: np.ndarray | None = None,
    ):
        """``target_scale`` (optional, per bin in [0, 1]) modulates how much
        cell area each bin should attract — the whitespace-reservation
        hook: bins over routing-starved regions get a scale below 1 so
        the placer leaves room for wires there."""
        self.grid = grid
        self.widths = np.asarray(widths, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        self.movable = np.asarray(movable_mask, dtype=bool)
        self.num_nodes = len(self.widths)
        # Effective spreading areas; congestion inflation overwrites these.
        self.areas = self.widths * self.heights
        # Free capacity per bin after fixed objects.
        base = grid.zeros()
        for xl, yl, xh, yh in fixed_rects:
            from repro.geometry import Rect

            if xh > xl and yh > yl:
                grid.add_rect(base, Rect(xl, yl, xh, yh))
        self.base = base
        self.free = np.maximum(grid.bin_area - base, 0.0)
        self.target_density = target_density
        if target_scale is not None:
            scale = np.asarray(target_scale, dtype=float)
            if scale.shape != self.free.shape:
                raise ValueError("target_scale must match the grid shape")
            self.free = self.free * np.clip(scale, 0.0, 1.0)
        self._split_small_large()
        self._target_cache = None
        self._probe = None

    # ------------------------------------------------------------------
    def _split_small_large(self):
        wb, hb = self.grid.bin_w, self.grid.bin_h
        span_x = np.ceil((self.widths + 4.0 * wb) / wb).astype(int) + 1
        span_y = np.ceil((self.heights + 4.0 * hb) / hb).astype(int) + 1
        movable_idx = np.flatnonzero(self.movable)
        small = movable_idx[
            (span_x[movable_idx] <= _MAX_WINDOW) & (span_y[movable_idx] <= _MAX_WINDOW)
        ]
        large = movable_idx[
            (span_x[movable_idx] > _MAX_WINDOW) | (span_y[movable_idx] > _MAX_WINDOW)
        ]
        self._small = small
        self._large = large
        if len(small):
            self._kx = int(span_x[small].max())
            self._ky = int(span_y[small].max())
        else:
            self._kx = self._ky = 0
        # Precomputation: node-constant kernel coefficients
        # for the fused x|y window batch, laid out node-minor (rows ``0:kx``
        # carry the x-axis coefficients, ``kx:kx+ky`` the y-axis ones, one
        # column per node, so one kernel batch covers both axes in long
        # inner loops), the per-row grid constants of that batch, and the
        # stacked coefficient columns of the batched large-node path.
        if len(small):
            grid = self.grid
            w = self.widths[small]
            h = self.heights[small]
            kx, ky = self._kx, self._ky

            def fused(colx, coly):
                return np.vstack([np.tile(colx, (kx, 1)), np.tile(coly, (ky, 1))])

            ax = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb))
            bx = 2.0 / (wb * (w + 4.0 * wb))
            ay = 4.0 / ((h + 2.0 * hb) * (h + 4.0 * hb))
            by = 2.0 / (hb * (h + 4.0 * hb))
            self._sm_reach = np.vstack([w / 2.0 + 2.0 * wb, h / 2.0 + 2.0 * hb])
            self._sm_r1 = fused(w / 2.0 + wb, h / 2.0 + hb)
            self._sm_r2 = fused(w / 2.0 + 2.0 * wb, h / 2.0 + 2.0 * hb)
            self._sm_a = fused(ax, ay)
            self._sm_b = fused(bx, by)
            self._sm_m2a = fused(-2.0 * ax, -2.0 * ay)
            self._sm_b2 = fused(2.0 * bx, 2.0 * by)
            origin = np.array([[grid.area.xl], [grid.area.yl]], dtype=float)
            pitch = np.array([[wb], [hb]])
            self._sm_origin = origin
            self._sm_pitch = pitch
            self._sm_row_origin = np.repeat(origin, [kx, ky], axis=0)
            self._sm_row_pitch = np.repeat(pitch, [kx, ky], axis=0)
            # A window index is on the grid iff, read as unsigned, it is
            # below its axis' bin count (negative ones wrap above it).
            self._sm_row_bins = np.repeat(
                np.array([[grid.nx], [grid.ny]], dtype=np.uint64), [kx, ky], axis=0
            )
            # Flat bin of window cell (k, l) relative to the window corner.
            self._sm_flat_step = (
                np.arange(kx, dtype=np.int64)[:, None] * grid.ny
                + np.arange(ky, dtype=np.int64)[None, :]
            ).reshape(-1)
        self._lg_idx = large
        if len(large):
            wl = self.widths[large]
            hl = self.heights[large]
            self._lg_rx = wl / 2.0 + 2.0 * wb
            self._lg_ry = hl / 2.0 + 2.0 * hb
            w = wl[:, None]
            h = hl[:, None]
            self._lg_r1x = w / 2.0 + wb
            self._lg_r2x = w / 2.0 + 2.0 * wb
            self._lg_ax = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb))
            self._lg_bx = 2.0 / (wb * (w + 4.0 * wb))
            self._lg_m2ax = -2.0 * self._lg_ax
            self._lg_b2x = 2.0 * self._lg_bx
            self._lg_r1y = h / 2.0 + hb
            self._lg_r2y = h / 2.0 + 2.0 * hb
            self._lg_ay = 4.0 / ((h + 2.0 * hb) * (h + 4.0 * hb))
            self._lg_by = 2.0 / (hb * (h + 4.0 * hb))
            self._lg_m2ay = -2.0 * self._lg_ay
            self._lg_b2y = 2.0 * self._lg_by
        self._bufs: dict = {}
        self._aranges: dict = {}
        self._areas_small = None

    def set_areas(self, areas: np.ndarray) -> None:
        """Override spreading areas (congestion-driven cell inflation)."""
        self.areas = np.asarray(areas, dtype=float)
        self._target_cache = None
        self._areas_small = None

    def target(self) -> np.ndarray:
        """Per-bin target potential.

        Free space is filled uniformly at the design's average utilization
        (or the user's ``target_density`` if that is higher), so total
        target mass is at least the total movable mass.
        """
        if self._target_cache is not None:
            return self._target_cache
        total_free = float(np.sum(self.free))
        total_area = float(np.sum(self.areas[self.movable]))
        t_auto = total_area / total_free if total_free > 0 else 1.0
        t = t_auto if self.target_density is None else max(
            min(self.target_density, 1.0), t_auto
        )
        self._target_cache = t * self.free
        return self._target_cache

    # ------------------------------------------------------------------
    # buffer management
    # ------------------------------------------------------------------
    def _buf(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != tuple(shape):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf

    def _row_sums(self, table: np.ndarray, name: str) -> np.ndarray:
        """:func:`row_sums` of a node-minor table into buffer ``name``."""
        n = table.shape[1]
        return row_sums(table, self._buf(name, (n,)), self._buf("row_acc", (8, n)))

    def _arange(self, n: int) -> np.ndarray:
        rng = self._aranges.get(n)
        if rng is None:
            rng = np.arange(n, dtype=np.int64)
            self._aranges[n] = rng
        return rng

    def _bell_value(self, d, r1, r2, a, b, p, prefix):
        """Kernel values ``p`` at distances ``d``, bit-identical to
        :func:`bell_kernel`.

        The outer piece is evaluated on ``min(|d|, r2)``: beyond the
        support that offset is exactly +0, so ``b*q*q`` is the +0 the
        original kernel writes there and only the inner piece needs a mask.
        ``|d|``, the offset and the inner mask stay in ``prefix`` buffers
        for :meth:`_bell_slope`.
        """
        shape = d.shape
        ad = self._buf(prefix + "_ad", shape)
        q = self._buf(prefix + "_q", shape)
        inner = self._buf(prefix + "_in", shape, dtype=bool)
        t = self._buf(prefix + "_t", shape)
        np.abs(d, out=ad)
        np.less_equal(ad, r1, out=inner)
        np.minimum(ad, r2, out=q)
        q -= r2
        # outer piece: p = b*(ad - r2)^2
        np.multiply(q, q, out=p)
        p *= b
        # inner piece: p = 1 - a*ad*ad
        np.multiply(a, ad, out=t)
        t *= ad
        np.subtract(1.0, t, out=t)
        np.copyto(p, t, where=inner)

    def _bell_slope(self, d, m2a, b2, dp, prefix):
        """Kernel derivatives at the distances of the last
        :meth:`_bell_value` call with the same ``prefix``."""
        ad = self._bufs[prefix + "_ad"]
        t = self._bufs[prefix + "_t"]
        sgn = self._buf(prefix + "_sgn", d.shape)
        np.sign(d, out=sgn)
        # outer piece: dp = (2b)*(ad - r2); inner piece: dp = (-2a)*ad
        np.multiply(b2, self._bufs[prefix + "_q"], out=dp)
        np.multiply(m2a, ad, out=t)
        np.copyto(dp, t, where=self._bufs[prefix + "_in"])
        dp *= sgn

    # ------------------------------------------------------------------
    def _small_window(self, cx: np.ndarray, cy: np.ndarray):
        """Window kernels and per-bin contributions of the small nodes.

        Every operation is per-node independent.  Returns
        ``(flat, corner, pt, norm, contrib)``: the node-major flat bins
        and contributions, whose scatter into the field the caller owns,
        the flat bin of each window's corner, the node-minor
        ``(kx+ky, n)`` kernel values and the normalization.  Window cells
        that fall off the grid get the distance +inf, so their kernel
        value and derivative are the exact +0 the original kernel masks
        in; their ``flat`` index is only clamped into range, because a +0
        weight leaves every bin sum and every gradient product unchanged
        wherever it lands.  The kernel derivatives are left to
        :meth:`_small_grad`.
        """
        grid = self.grid
        n = len(self._small)
        kx, ky = self._kx, self._ky
        kt = kx + ky
        # window corner: ceil((c - reach - origin)/pitch - 0.5), per axis
        c = self._buf("c", (2, n))
        np.take(cx, self._small, out=c[0], mode="clip")
        np.take(cy, self._small, out=c[1], mode="clip")
        t = self._buf("t", (2, n))
        np.subtract(c, self._sm_reach, out=t)
        t -= self._sm_origin
        t /= self._sm_pitch
        t -= 0.5
        np.ceil(t, out=t)
        i0 = self._buf("i0", (2, n), dtype=np.int64)
        np.copyto(i0, t, casting="unsafe")
        # window bin indices, off-grid mask and signed distances to the
        # bin centres, x and y windows fused in one (kx+ky, n) batch
        win = self._buf("win", (kt, n), dtype=np.int64)
        np.add(self._arange(kx)[:, None], i0[0], out=win[:kx])
        np.add(self._arange(ky)[:, None], i0[1], out=win[kx:])
        off = self._buf("off", (kt, n), dtype=bool)
        np.greater_equal(win.view(np.uint64), self._sm_row_bins, out=off)
        d = self._buf("d", (kt, n))
        np.add(win, 0.5, out=d)
        d *= self._sm_row_pitch
        d += self._sm_row_origin               # bin centres
        np.subtract(c[0], d[:kx], out=d[:kx])
        np.subtract(c[1], d[kx:], out=d[kx:])
        np.copyto(d, np.inf, where=off)
        pt = self._buf("pt", (kt, n))
        self._bell_value(d, self._sm_r1, self._sm_r2, self._sm_a, self._sm_b, pt, "k")
        # normalization: area / (Sx * Sy), guarded
        sum_px = self._row_sums(pt[:kx], "sum_px")
        sum_py = self._row_sums(pt[kx:], "sum_py")
        mass = self._buf("mass", (n,))
        np.multiply(sum_px, sum_py, out=mass)
        if self._areas_small is None:
            self._areas_small = self.areas[self._small]
        norm = self._buf("norm", (n,))
        np.maximum(mass, 1e-30, out=norm)
        np.divide(self._areas_small, norm, out=norm)
        mnz = self._buf("mnz", (n,), dtype=bool)
        np.less_equal(mass, 0.0, out=mnz)
        np.copyto(norm, 0.0, where=mnz)
        # flat bin index of every window cell, for one bincount scatter;
        # read as unsigned, negative indices clamp to the last bin too
        corner = self._buf("corner", (n,), dtype=np.int64)
        np.multiply(i0[0], grid.ny, out=corner)
        corner += i0[1]
        flat = self._buf("flat", (n, kx * ky), dtype=np.int64)
        np.add(corner[:, None], self._sm_flat_step, out=flat)
        flat_u = flat.view(np.uint64)
        np.minimum(flat_u, np.uint64(grid.nx * grid.ny - 1), out=flat_u)
        # contrib = (norm*px) (x) py, formed node-minor so every product
        # runs one long inner loop, then copied to the node-major order
        # the bincount must sum in
        nxt = self._buf("nxt", (kx, n))
        np.multiply(norm, pt[:kx], out=nxt)
        ct = self._buf("ct", (kx, ky, n))
        np.multiply(nxt[:, None, :], pt[None, kx:], out=ct)
        contrib = self._buf("contrib", (n, kx * ky))
        np.copyto(contrib.reshape(n, kx, ky), ct.transpose(2, 0, 1))
        return flat, corner, pt, norm, contrib

    def potential(self, cx: np.ndarray, cy: np.ndarray):
        """The bin potential field and the per-node kernel tables.

        Returns ``(phi, small_tables, large_tables)``; the tables carry
        what the gradient pass needs so kernels are evaluated once.
        """
        grid = self.grid
        small_tables = None
        phi = None
        if len(self._small):
            flat, corner, pt, norm, contrib = self._small_window(cx, cy)
            phi = np.bincount(
                flat.reshape(-1), weights=contrib.reshape(-1),
                minlength=grid.nx * grid.ny,
            ).reshape(grid.nx, grid.ny)
            small_tables = (self._small, corner, pt, norm)
        if phi is None:
            phi = grid.zeros()
        return phi, small_tables, self._large_batch(phi, cx, cy)

    def _large_batch(self, phi, cx, cy):
        """Batched large-node kernels, accumulated into ``phi`` in order.

        Bounds, bin centres, and both 1-D kernels are evaluated for all
        large nodes in one padded batch (per-node coefficient columns, rows
        padded to the widest window; padding is never read because every
        consumer works on exact-length row views).  The per-node sums,
        normalization, and ``phi`` scatter keep the original sequential
        per-node order and arithmetic, so the field and the returned
        tables are bit-identical to the per-node loop.
        """
        idxl = self._lg_idx
        large_tables = []
        if not len(idxl):
            return large_tables
        grid = self.grid
        wb, hb = grid.bin_w, grid.bin_h
        u = cx[idxl]
        v = cy[idxl]
        ix0 = np.maximum(
            0, np.ceil((u - self._lg_rx - grid.area.xl) / wb - 0.5).astype(np.int64)
        )
        ix1 = np.minimum(
            grid.nx - 1,
            np.floor((u + self._lg_rx - grid.area.xl) / wb - 0.5).astype(np.int64),
        )
        iy0 = np.maximum(
            0, np.ceil((v - self._lg_ry - grid.area.yl) / hb - 0.5).astype(np.int64)
        )
        iy1 = np.minimum(
            grid.ny - 1,
            np.floor((v + self._lg_ry - grid.area.yl) / hb - 0.5).astype(np.int64),
        )
        valid = (ix1 >= ix0) & (iy1 >= iy0)
        if not valid.any():
            return large_tables
        full = bool(valid.all())
        sub = None if full else np.flatnonzero(valid)

        def take(a):
            return a if full else a[sub]

        uv = take(u)[:, None]
        vv = take(v)[:, None]
        ix0v, ix1v = take(ix0), take(ix1)
        iy0v, iy1v = take(iy0), take(iy1)
        lxv = ix1v - ix0v + 1
        lyv = iy1v - iy0v + 1
        m = len(ix0v)
        Lx = int(lxv.max())
        Ly = int(lyv.max())
        slx = ix0v[:, None] + self._arange(Lx)
        sly = iy0v[:, None] + self._arange(Ly)
        dx = grid.area.xl + (slx + 0.5) * wb
        np.subtract(uv, dx, out=dx)
        dy = grid.area.yl + (sly + 0.5) * hb
        np.subtract(vv, dy, out=dy)
        px = self._buf("lg_px", (m, Lx))
        dpx = self._buf("lg_dpx", (m, Lx))
        py = self._buf("lg_py", (m, Ly))
        dpy = self._buf("lg_dpy", (m, Ly))
        self._bell_value(
            dx, take(self._lg_r1x), take(self._lg_r2x), take(self._lg_ax),
            take(self._lg_bx), px, "lgx",
        )
        self._bell_slope(dx, take(self._lg_m2ax), take(self._lg_b2x), dpx, "lgx")
        self._bell_value(
            dy, take(self._lg_r1y), take(self._lg_r2y), take(self._lg_ay),
            take(self._lg_by), py, "lgy",
        )
        self._bell_slope(dy, take(self._lg_m2ay), take(self._lg_b2y), dpy, "lgy")
        nodes = (idxl if full else idxl[sub]).tolist()
        ix0l, ix1l = ix0v.tolist(), ix1v.tolist()
        iy0l, iy1l = iy0v.tolist(), iy1v.tolist()
        lxl, lyl = lxv.tolist(), lyv.tolist()
        areas = self.areas
        for j in range(m):
            lx = lxl[j]
            ly = lyl[j]
            pxr = px[j, :lx]
            pyr = py[j, :ly]
            s_px = float(pxr.sum())
            s_py = float(pyr.sum())
            mass = s_px * s_py
            if mass <= 0:
                continue
            i = nodes[j]
            norm = areas[i] / mass
            a0, a1, b0, b1 = ix0l[j], ix1l[j], iy0l[j], iy1l[j]
            phi[a0 : a1 + 1, b0 : b1 + 1] += norm * np.outer(pxr, pyr)
            dpxr = dpx[j, :lx]
            dpyr = dpy[j, :ly]
            large_tables.append(
                (
                    i, a0, a1, b0, b1, pxr, dpxr, pyr, dpyr, norm,
                    s_px, s_py, float(dpxr.sum()), float(dpyr.sum()),
                )
            )
        return large_tables

    # ------------------------------------------------------------------
    def value_grad(self, cx: np.ndarray, cy: np.ndarray):
        """Penalty ``sum_b (phi_b - target_b)^2`` and its node gradient."""
        phi, small_tables, large_tables = self.potential(cx, cy)
        psi = phi - self.target()
        value = float(np.sum(psi * psi))
        grad_x, grad_y = self._grad_from_tables(psi, small_tables, large_tables)
        return value, grad_x, grad_y

    def value_probe(self, cx: np.ndarray, cy: np.ndarray) -> float:
        """Penalty value only, stashing tables for :meth:`finish_grad`.

        With :meth:`finish_grad` this splits one ``value_grad`` into the
        cheap half the line search always needs and the gradient half
        only accepted points need; both halves run the same ops as
        ``value_grad``, so the split pair is bit-identical to it.
        """
        phi, small_tables, large_tables = self.potential(cx, cy)
        psi = phi - self.target()
        self._probe = (psi, small_tables, large_tables)
        return float(np.sum(psi * psi))

    def finish_grad(self):
        """Gradients of the last :meth:`value_probe` point."""
        psi, small_tables, large_tables = self._probe
        return self._grad_from_tables(psi, small_tables, large_tables)

    def _small_grad(self, psi, small_tables):
        """Per-node small gradient rows ``(t1x, t1y)`` from window tables.

        Builds the kernel derivatives of the last :meth:`_small_window`
        call (rejected line-search probes never need them) and reuses its
        kernel sums.  Node-minor like :meth:`_small_window`: the field,
        the window products and the derivatives have one row per window
        cell, and every sum over a node's window goes through
        :func:`row_sums`.  The caller scatters the rows into the full
        gradient vectors.
        """
        _idx, corner, pt, norm = small_tables
        n = len(norm)
        grid = self.grid
        kx, ky = self._kx, self._ky
        dpt = self._buf("dpt", (kx + ky, n))
        self._bell_slope(self._bufs["d"], self._sm_m2a, self._sm_b2, dpt, "k")
        px, py = pt[:kx], pt[kx:]
        dpx, dpy = dpt[:kx], dpt[kx:]
        # window bins as a contiguous node-minor index, clamped like the
        # probe's flat index, for one gather of the field
        win = self._buf("gwin", (kx * ky, n), dtype=np.int64)
        np.add(corner, self._sm_flat_step[:, None], out=win)
        win_u = win.view(np.uint64)
        np.minimum(win_u, np.uint64(grid.nx * grid.ny - 1), out=win_u)
        field = self._buf("field", (kx, ky, n))
        np.take(psi.reshape(-1), win.reshape(kx, ky, n), out=field, mode="clip")
        fy = self._buf("fy", (kx, ky, n))
        np.multiply(field, py[None, :, :], out=fy)
        t3 = self._buf("t3", (kx, ky, n))
        cells = t3.reshape(kx * ky, n)
        np.multiply(fy, dpx[:, None, :], out=t3)
        gx = self._row_sums(cells, "gx")
        np.multiply(fy, px[:, None, :], out=t3)
        gpp = self._row_sums(cells, "gpp")
        np.multiply(field, px[:, None, :], out=t3)
        t3 *= dpy[None, :, :]
        gy = self._row_sums(cells, "gy")
        sum_px = self._buf("g_sum_px", (n,))
        sum_py = self._buf("g_sum_py", (n,))
        np.maximum(self._bufs["sum_px"], 1e-30, out=sum_px)
        np.maximum(self._bufs["sum_py"], 1e-30, out=sum_py)
        sum_dpx = self._row_sums(dpx, "sum_dpx")
        sum_dpy = self._row_sums(dpy, "sum_dpy")
        # grad = 2*norm*(g - gpp*sum_dp/sum_p), assembled in buffers
        n2 = self._buf("n2", (n,))
        np.multiply(2.0, norm, out=n2)
        t1x = self._buf("t1x", (n,))
        np.multiply(gpp, sum_dpx, out=t1x)
        t1x /= sum_px
        np.subtract(gx, t1x, out=t1x)
        t1x *= n2
        t1y = self._buf("t1y", (n,))
        np.multiply(gpp, sum_dpy, out=t1y)
        t1y /= sum_py
        np.subtract(gy, t1y, out=t1y)
        t1y *= n2
        return t1x, t1y

    def _grad_from_tables(self, psi, small_tables, large_tables):
        grad_x = np.zeros(self.num_nodes)
        grad_y = np.zeros(self.num_nodes)
        # The kernel mass sum_k p(k) varies with a node's phase relative to
        # the bin grid, so the normalization N = area / (Sx * Sy) is itself
        # position dependent; including dN makes the gradient exact.
        if small_tables is not None:
            idx = small_tables[0]
            t1x, t1y = self._small_grad(psi, small_tables)
            grad_x[idx] = t1x
            grad_y[idx] = t1y
        # Kernel sums were already taken in the potential pass; ``@`` is
        # left-associative, so sharing ``px @ field`` between the gpp and
        # grad_y contractions reproduces the original products exactly.
        for i, ix0, ix1, iy0, iy1, px, dpx, py, dpy, norm, s_px, s_py, s_dpx, s_dpy in large_tables:
            field = psi[ix0 : ix1 + 1, iy0 : iy1 + 1].copy()
            t = px @ field
            gpp = float(t @ py)
            sum_px = max(s_px, 1e-30)
            sum_py = max(s_py, 1e-30)
            grad_x[i] = 2.0 * norm * (
                float(dpx @ field @ py) - gpp * s_dpx / sum_px
            )
            grad_y[i] = 2.0 * norm * (
                float(t @ dpy) - gpp * s_dpy / sum_py
            )
        return grad_x, grad_y

    def value(self, cx: np.ndarray, cy: np.ndarray) -> float:
        phi, _, _ = self.potential(cx, cy)
        psi = phi - self.target()
        return float(np.sum(psi * psi))
