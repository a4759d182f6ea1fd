"""Exhaustive tiling + loop-order search for one core (Sec V-B1).

"The partitioned workload will be scheduled in [the] intra-core
exploration engine, which performs exhaustive search optimization for
tiling and loop reorder like many existing works [29], [41], [53],
[58]."  We search tile sizes over the output-channel (K), input-channel
(C) and output-row (H) dimensions and three canonical loop orders, under
the GLB capacity constraint (double-buffered), and pick the minimum
energy-delay product.

Re-fetch multipliers per loop order (outer -> inner over tile loops):

==============  ========  ==========  ===========
order           ifmap     weights     psum passes
==============  ========  ==========  ===========
WS (k, c, h)    n_k       1           n_c
OS (k, h, c)    n_k       n_h         1
IS (c, h, k)    1         n_h         n_c
==============  ========  ==========  ===========

where ``n_x`` is the trip count of the ``x`` tile loop (multipliers
collapse to 1 when a single tile covers the dimension).
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.energy import EnergyModel
from repro.intracore.dataflow import CoreWorkload, PEArray
from repro.intracore.result import IntraCoreResult

#: Bytes per partial sum held in GLB when accumulation spans C tiles.
_PSUM_BYTES = 4


def _geometric_choices(dim: int, cap: int = 8) -> list[int]:
    """Candidate tile sizes: powers of two up to dim, plus dim itself."""
    choices = []
    t = 1
    while t < dim and len(choices) < cap - 1:
        choices.append(t)
        t *= 2
    choices.append(dim)
    return choices


def _vector_schedule(
    wl: CoreWorkload,
    glb_bytes: int,
    glb_bw: float,
    vector_lanes: int,
    frequency: float,
    energy: EnergyModel,
) -> IntraCoreResult:
    """Vector-unit layers: streaming, no tiling search needed."""
    ops = wl.macs()
    if_vol, of_vol = wl.ifmap_bytes(), wl.ofmap_bytes()
    glb_traffic = if_vol + of_vol
    compute = ops / (vector_lanes * frequency)
    time = max(compute, glb_traffic / glb_bw)
    e = ops * energy.e_vector + glb_traffic * energy.e_glb
    working_set = if_vol + of_vol
    return IntraCoreResult(
        cycles=math.ceil(ops / vector_lanes),
        compute_time=time,
        if_fetches=1.0,
        w_fetches=1.0,
        of_writebacks=1.0,
        glb_bytes=glb_traffic,
        reg_bytes=0.0,
        energy=e,
        tiling=(wl.k, wl.c, wl.h),
        loop_order="VEC",
        fits=working_set <= glb_bytes,
    )


def schedule_workload(
    wl: CoreWorkload,
    glb_bytes: int,
    macs_per_core: int,
    frequency: float,
    glb_bytes_per_cycle: int,
    vector_lanes: int,
    energy: EnergyModel,
) -> IntraCoreResult:
    """Exhaustively search tilings/loop orders; return the best schedule.

    Always returns a result: when nothing fits within the GLB, the
    smallest-tile schedule is returned with ``fits=False`` and its spill
    traffic inflated, which steers the SA search away from such schemes
    while keeping every encoding evaluable.
    """
    glb_bw = glb_bytes_per_cycle * frequency
    if not wl.is_pe_workload():
        return _vector_schedule(
            wl, glb_bytes, glb_bw, vector_lanes, frequency, energy
        )

    pe = PEArray(macs_per_core)
    cycles = pe.cycles(wl)
    macs = wl.macs()
    bpe = wl.bytes_per_elem
    if_vol, w_vol, of_vol = wl.ifmap_bytes(), wl.weight_bytes(), wl.ofmap_bytes()
    budget = glb_bytes / 2  # double buffering

    # Everything outside the tiling choice is loop-invariant; the whole
    # (tk, tc, th, order) grid is then evaluated as one broadcast
    # computation and only the winning schedule materializes a result.
    read_if = cycles * pe.lanes_c * bpe
    reg = 2 * macs * bpe
    mac_j = macs * energy.e_mac
    reg_j = reg * energy.e_reg
    compute_floor = cycles / frequency
    is_matmul = wl.kind.value == "matmul"

    k_choices = _geometric_choices(wl.k)
    c_choices = _geometric_choices(wl.c)
    h_choices = _geometric_choices(wl.h)
    tks = np.array(k_choices, dtype=np.int64)[:, None, None]
    tcs = np.array(c_choices, dtype=np.int64)[None, :, None]
    ths = np.array(h_choices, dtype=np.int64)[None, None, :]
    n_k = -(-wl.k // tks)
    n_c = -(-wl.c // tcs)
    n_h = -(-wl.h // ths)

    if is_matmul:
        w_tile = wl.b * tks * tcs * bpe
    else:
        w_tile = tks * np.maximum(1, -(-tcs // wl.groups)) * wl.r * wl.s * bpe
    in_th = (ths - 1) * wl.stride + wl.r
    if_tile = wl.b * in_th * wl.in_w * tcs * bpe
    psum_width = np.where(n_c > 1, _PSUM_BYTES, bpe)
    of_tile = wl.b * ths * wl.w * tks * psum_width
    working_set = w_tile + if_tile + of_tile
    fits = working_set <= budget

    # Loop-order multipliers on a trailing axis (WS, OS, IS) — the same
    # innermost position the scalar search iterated them in — written
    # straight into preallocated grids.
    shape = (len(k_choices), len(c_choices), len(h_choices), 3)
    m_if = np.empty(shape, dtype=np.int64)
    m_if[..., 0] = n_k
    m_if[..., 1] = n_k
    m_if[..., 2] = 1
    m_w = np.empty(shape, dtype=np.int64)
    m_w[..., 0] = 1
    m_w[..., 1] = n_h
    m_w[..., 2] = n_h
    m_psum = np.empty(shape, dtype=np.int64)
    m_psum[..., 0] = n_c
    m_psum[..., 1] = 1
    m_psum[..., 2] = n_c

    glb_traffic = (
        if_vol * m_if + 2 * (w_vol * m_w)
        + of_vol * (2 * m_psum - 1) + read_if
    )
    fits_o = fits[..., None]  # broadcasts over the order axis
    glb_traffic = np.where(fits_o, glb_traffic, glb_traffic * 4)
    e = mac_j + glb_traffic * energy.e_glb + reg_j
    time = np.maximum(compute_floor, glb_traffic / glb_bw)

    if fits.any():
        cost = np.where(fits_o, e * time, np.inf).ravel()
        idx = int(np.argmin(cost))  # first minimum == scalar scan order
    else:
        # Nothing fits: the smallest-working-set tiling under the WS
        # order (the first order the scalar scan recorded).
        idx = int(np.argmin(working_set)) * 3
    rest, oi = divmod(idx, 3)
    rest, hi = divmod(rest, shape[2])
    ki, ci = divmod(rest, shape[1])
    pick = (ki, ci, hi, oi)
    return IntraCoreResult(
        cycles=cycles,
        compute_time=float(time[pick]),
        if_fetches=float(m_if[pick]),
        w_fetches=float(m_w[pick]),
        of_writebacks=float(m_psum[pick]),
        glb_bytes=int(glb_traffic[pick]),
        reg_bytes=float(reg),
        energy=float(e[pick]),
        tiling=(k_choices[ki], c_choices[ci], h_choices[hi]),
        loop_order=("WS", "OS", "IS")[oi],
        fits=bool(fits[ki, ci, hi]),
    )
