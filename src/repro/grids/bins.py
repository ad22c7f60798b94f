"""A uniform rectangular grid over a region of the die.

The same structure backs density bins in global placement, RUDY maps, and
the tiles of the evaluation global router.  All maps are ``(nx, ny)``
float64 arrays indexed ``[ix, iy]`` with ``ix`` horizontal.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Rect


class BinGrid:
    """An ``nx`` x ``ny`` uniform grid covering ``area``."""

    def __init__(self, area: Rect, nx: int, ny: int):
        if nx <= 0 or ny <= 0:
            raise ValueError("grid dimensions must be positive")
        if area.width <= 0 or area.height <= 0:
            raise ValueError("grid area must have positive extent")
        self.area = area
        self.nx = int(nx)
        self.ny = int(ny)
        self.bin_w = area.width / nx
        self.bin_h = area.height / ny

    @staticmethod
    def with_bin_target(area: Rect, target_bins: int) -> "BinGrid":
        """A roughly square grid with about ``target_bins`` bins."""
        aspect = area.width / area.height
        nx = max(1, int(round(np.sqrt(target_bins * aspect))))
        ny = max(1, int(round(target_bins / nx)))
        return BinGrid(area, nx, ny)

    @property
    def num_bins(self) -> int:
        return self.nx * self.ny

    @property
    def bin_area(self) -> float:
        return self.bin_w * self.bin_h

    def zeros(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny))

    # ------------------------------------------------------------------
    # coordinate mapping
    # ------------------------------------------------------------------
    def index_of(self, x, y):
        """Bin indices containing point(s) ``(x, y)``, clamped to the grid."""
        ix = np.clip(
            np.floor((np.asarray(x) - self.area.xl) / self.bin_w).astype(np.int64),
            0,
            self.nx - 1,
        )
        iy = np.clip(
            np.floor((np.asarray(y) - self.area.yl) / self.bin_h).astype(np.int64),
            0,
            self.ny - 1,
        )
        return ix, iy

    def bin_rect(self, ix: int, iy: int) -> Rect:
        xl = self.area.xl + ix * self.bin_w
        yl = self.area.yl + iy * self.bin_h
        return Rect(xl, yl, xl + self.bin_w, yl + self.bin_h)

    def centers_x(self) -> np.ndarray:
        """x coordinate of each column's bin centres, shape ``(nx,)``."""
        return self.area.xl + (np.arange(self.nx) + 0.5) * self.bin_w

    def centers_y(self) -> np.ndarray:
        """y coordinate of each row's bin centres, shape ``(ny,)``."""
        return self.area.yl + (np.arange(self.ny) + 0.5) * self.bin_h

    # ------------------------------------------------------------------
    # rasterization
    # ------------------------------------------------------------------
    def add_rect(self, grid: np.ndarray, rect: Rect, value: float = 1.0) -> None:
        """Accumulate ``value`` x (overlap area) of ``rect`` into ``grid``.

        The contribution to each bin is the exact geometric overlap, so
        integrating ``grid`` recovers ``value * rect.area`` (clipped to the
        grid region).
        """
        xl = max(rect.xl, self.area.xl)
        yl = max(rect.yl, self.area.yl)
        xh = min(rect.xh, self.area.xh)
        yh = min(rect.yh, self.area.yh)
        if xh <= xl or yh <= yl:
            return
        ix0 = int((xl - self.area.xl) / self.bin_w)
        iy0 = int((yl - self.area.yl) / self.bin_h)
        ix1 = min(self.nx - 1, int(np.ceil((xh - self.area.xl) / self.bin_w)) - 1)
        iy1 = min(self.ny - 1, int(np.ceil((yh - self.area.yl) / self.bin_h)) - 1)
        ix0 = min(ix0, self.nx - 1)
        iy0 = min(iy0, self.ny - 1)
        # Per-column and per-row clipped extents, combined by outer product.
        cols = np.arange(ix0, ix1 + 1)
        rows = np.arange(iy0, iy1 + 1)
        col_lo = self.area.xl + cols * self.bin_w
        row_lo = self.area.yl + rows * self.bin_h
        wx = np.minimum(col_lo + self.bin_w, xh) - np.maximum(col_lo, xl)
        wy = np.minimum(row_lo + self.bin_h, yh) - np.maximum(row_lo, yl)
        grid[ix0 : ix1 + 1, iy0 : iy1 + 1] += value * np.outer(
            np.maximum(wx, 0.0), np.maximum(wy, 0.0)
        )

    def rasterize_rects(self, xl, yl, xh, yh, values=None, *, out=None) -> np.ndarray:
        """Exact-overlap rasterization of many rectangles, vectorized.

        Rectangle ``i`` contributes ``values[i] * overlap_area`` to each
        bin it touches (``values`` default 1, i.e. pure area — the same
        semantics as :meth:`add_rect`).

        Each rectangle's exact bin window is expanded (ragged, no padding
        to the largest span), the entries are ordered the way the original
        window sweep (a golden twin under ``tests/reference/``) visited
        them, and one ``np.bincount`` scatters them — bit-identical
        output, but the work is the number of touched bins rather than
        ``num_rects x max_span^2``, so one macro no longer drags every
        standard cell through its full sweep.

        ``out`` supplies a caller-owned ``(nx, ny)`` accumulator that is
        zeroed and reused instead of allocating a fresh grid — a zeroed
        buffer is indistinguishable from ``zeros()``, so results stay
        bit-identical.  The returned array is ``out`` itself.
        """
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
        return self._rasterize_entries(grid, cxl, cyl, cxh, cyh, dens, ix0, iy0)

    def _rasterize_entries(self, grid, cxl, cyl, cxh, cyh, dens, ix0, iy0):
        """Ragged per-rect window expansion with sweep-ordered scatter.

        The original sweep accumulates each bin's contributions in
        lexicographic ``(kx, ky, rect)`` order (window offset major, rect
        index minor).  Expanding exact windows enumerates entries in
        ``(rect, kx, ky)`` order instead, so a stable sort on ``(kx, ky)``
        restores the sweep order before the sequential ``np.bincount``
        scatter — making the result bit-identical, not merely close.
        """
        # Exact per-rect window lengths: the covered bins are
        # ix0 .. ceil((cxh - xl)/bw) - 1, all inside the grid.
        lx = np.ceil((cxh - self.area.xl) / self.bin_w).astype(np.int64) - ix0
        ly = np.ceil((cyh - self.area.yl) / self.bin_h).astype(np.int64) - iy0
        np.clip(lx, 1, self.nx - ix0, out=lx)
        np.clip(ly, 1, self.ny - iy0, out=ly)
        num = len(lx)
        total = int((lx * ly).sum())
        # Work factors over window *columns* (rect, kx) and window *rows*
        # (rect, ky): the x extent of an entry depends only on its column
        # and the y extent only on its row, so both overlap terms are
        # computed once per column/row and expanded to entries by repeat
        # and gather — the per-entry float expressions are elementwise
        # identical to evaluating them on the flat entry list, and the
        # enumeration stays lexicographic (rect, kx, ky).
        row_start = np.zeros(num, dtype=np.int64)
        np.cumsum(lx[:-1], out=row_start[1:])
        row_rid = np.repeat(np.arange(num, dtype=np.int64), lx)
        row_kx = np.arange(int(lx.sum()), dtype=np.int64) - row_start[row_rid]
        row_ix = ix0[row_rid] + row_kx
        bxl = self.area.xl + row_ix * self.bin_w
        wx = np.minimum(bxl + self.bin_w, cxh[row_rid]) - np.maximum(bxl, cxl[row_rid])
        wx = np.maximum(wx, 0.0)
        mass_col = dens[row_rid] * wx
        col_start = np.zeros(num, dtype=np.int64)
        np.cumsum(ly[:-1], out=col_start[1:])
        col_rid = np.repeat(np.arange(num, dtype=np.int64), ly)
        col_ky = np.arange(int(ly.sum()), dtype=np.int64) - col_start[col_rid]
        byl = self.area.yl + (iy0[col_rid] + col_ky) * self.bin_h
        wy_row = np.minimum(byl + self.bin_h, cyh[col_rid]) - np.maximum(byl, cyl[col_rid])
        wy_row = np.maximum(wy_row, 0.0)
        # Expand columns to entries: each (rect, kx) column spans its
        # rect's ly bins with ky = 0..ly-1 in order.
        ly_col = ly[row_rid]
        entry_start = np.zeros(len(ly_col), dtype=np.int64)
        np.cumsum(ly_col[:-1], out=entry_start[1:])
        ky = np.arange(total, dtype=np.int64) - np.repeat(entry_start, ly_col)
        mass = np.repeat(mass_col, ly_col)
        mass *= wy_row[np.repeat(col_start[row_rid], ly_col) + ky]
        # The sweep drops mass <= 0 entries; adding an exact +0.0 instead
        # is a no-op on the (never negative-zero) accumulator.
        np.copyto(mass, 0.0, where=mass <= 0.0)
        flat = np.repeat(row_ix * self.ny + iy0[row_rid], ly_col) + ky
        key = np.repeat(row_kx * int(ly.max()), ly_col) + ky
        # Same key values sort to the same stable permutation in any
        # dtype; 16-bit keys take numpy's radix path (~7x faster).
        key_max = int((lx.max() - 1) * ly.max() + ly.max() - 1)
        if key_max < np.iinfo(np.int16).max:
            key = key.astype(np.int16)
        elif key_max < np.iinfo(np.int32).max:
            key = key.astype(np.int32)
        order = np.argsort(key, kind="stable")
        out = np.bincount(flat[order], weights=mass[order], minlength=self.nx * self.ny)
        grid += out.reshape(self.nx, self.ny)
        return grid

    def rasterize_rects_multi(self, xl, yl, xh, yh, values, outs=None):
        """Rasterize the *same* rectangles with several value vectors.

        The geometry work — clipping, per-rect bin-window expansion,
        overlap widths — is computed once and shared; each value vector
        then costs one gather + one ``bincount``.  The congestion
        feature extractor uses this to build its five net-box maps for
        roughly the price of one :meth:`rasterize_rects` call.

        Entries accumulate in natural ``(rect, kx, ky)`` order, which is
        deterministic for fixed input, but *not* the golden sweep order
        of :meth:`rasterize_rects` — use that method on bit-exactness-
        constrained paths.  ``outs`` optionally supplies one reusable
        ``(nx, ny)`` buffer per value vector; returns the list of grids.
        """
        xl = np.asarray(xl, dtype=float)
        yl = np.asarray(yl, dtype=float)
        xh = np.asarray(xh, dtype=float)
        yh = np.asarray(yh, dtype=float)
        values = [np.asarray(v, dtype=float) for v in values]
        if outs is None:
            outs = [None] * len(values)
        if len(outs) != len(values):
            raise ValueError(f"{len(values)} value vectors, {len(outs)} outs")
        grids = []
        for out in outs:
            if out is None:
                grids.append(self.zeros())
            else:
                if out.shape != (self.nx, self.ny):
                    raise ValueError(
                        f"out has shape {out.shape}, grid is ({self.nx}, {self.ny})"
                    )
                out.fill(0.0)
                grids.append(out)
        if len(xl) == 0:
            return grids
        cxl = np.clip(xl, self.area.xl, self.area.xh)
        cyl = np.clip(yl, self.area.yl, self.area.yh)
        cxh = np.clip(xh, self.area.xl, self.area.xh)
        cyh = np.clip(yh, self.area.yl, self.area.yh)
        keep = (cxh - cxl) * (cyh - cyl) > 0
        if not keep.any():
            return grids
        cxl, cyl, cxh, cyh = cxl[keep], cyl[keep], cxh[keep], cyh[keep]
        ix0 = np.clip(
            np.floor((cxl - self.area.xl) / self.bin_w).astype(np.int64),
            0, self.nx - 1,
        )
        iy0 = np.clip(
            np.floor((cyl - self.area.yl) / self.bin_h).astype(np.int64),
            0, self.ny - 1,
        )
        lx = np.ceil((cxh - self.area.xl) / self.bin_w).astype(np.int64) - ix0
        ly = np.ceil((cyh - self.area.yl) / self.bin_h).astype(np.int64) - iy0
        np.clip(lx, 1, self.nx - ix0, out=lx)
        np.clip(ly, 1, self.ny - iy0, out=ly)
        num = len(lx)
        total = int((lx * ly).sum())
        # Window columns (rect, kx): x overlap width per covered column.
        row_start = np.zeros(num, dtype=np.int64)
        np.cumsum(lx[:-1], out=row_start[1:])
        row_rid = np.repeat(np.arange(num, dtype=np.int64), lx)
        row_kx = np.arange(int(lx.sum()), dtype=np.int64) - row_start[row_rid]
        row_ix = ix0[row_rid] + row_kx
        bxl = self.area.xl + row_ix * self.bin_w
        wx = np.minimum(bxl + self.bin_w, cxh[row_rid]) - np.maximum(bxl, cxl[row_rid])
        wx = np.maximum(wx, 0.0)
        # Window rows (rect, ky): y overlap width per covered row.
        col_start = np.zeros(num, dtype=np.int64)
        np.cumsum(ly[:-1], out=col_start[1:])
        col_rid = np.repeat(np.arange(num, dtype=np.int64), ly)
        col_ky = np.arange(int(ly.sum()), dtype=np.int64) - col_start[col_rid]
        byl = self.area.yl + (iy0[col_rid] + col_ky) * self.bin_h
        wy_row = np.minimum(byl + self.bin_h, cyh[col_rid]) - np.maximum(byl, cyl[col_rid])
        wy_row = np.maximum(wy_row, 0.0)
        # Expand columns to entries and pre-gather the per-entry y widths
        # and flat bin indices — shared by every value vector.
        ly_col = ly[row_rid]
        entry_start = np.zeros(len(ly_col), dtype=np.int64)
        np.cumsum(ly_col[:-1], out=entry_start[1:])
        ky = np.arange(total, dtype=np.int64) - np.repeat(entry_start, ly_col)
        wy_entries = wy_row[np.repeat(col_start[row_rid], ly_col) + ky]
        flat = np.repeat(row_ix * self.ny + iy0[row_rid], ly_col) + ky
        nb = self.nx * self.ny
        for grid, vals in zip(grids, values):
            mass = np.repeat(vals[keep][row_rid] * wx, ly_col)
            mass *= wy_entries
            grid += np.bincount(flat, weights=mass, minlength=nb).reshape(
                self.nx, self.ny
            )
        return grids

    def bilinear_sample(self, grid: np.ndarray, x, y):
        """Bilinear interpolation of ``grid`` (values at bin centres)."""
        fx = (np.asarray(x) - self.area.xl) / self.bin_w - 0.5
        fy = (np.asarray(y) - self.area.yl) / self.bin_h - 0.5
        fx = np.clip(fx, 0.0, self.nx - 1.0)
        fy = np.clip(fy, 0.0, self.ny - 1.0)
        ix = np.minimum(fx.astype(np.int64), self.nx - 2) if self.nx > 1 else np.zeros_like(fx, dtype=np.int64)
        iy = np.minimum(fy.astype(np.int64), self.ny - 2) if self.ny > 1 else np.zeros_like(fy, dtype=np.int64)
        tx = fx - ix
        ty = fy - iy
        ix1 = np.minimum(ix + 1, self.nx - 1)
        iy1 = np.minimum(iy + 1, self.ny - 1)
        return (
            grid[ix, iy] * (1 - tx) * (1 - ty)
            + grid[ix1, iy] * tx * (1 - ty)
            + grid[ix, iy1] * (1 - tx) * ty
            + grid[ix1, iy1] * tx * ty
        )
