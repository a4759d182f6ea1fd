"""Vectorized tiling search vs a scalar brute-force oracle.

:func:`schedule_workload` evaluates the whole ``(tk, tc, th, order)``
grid as one broadcast computation.  The oracle here walks the same grid
one point at a time in the documented scan order (K tile outermost, then
C, then H, loop order innermost as WS, OS, IS), keeping the first
strictly-better schedule — the contract the vectorized ``argmin`` must
honour.  Results must be *equal*, floats included.
"""

import math
import random

import pytest

from repro.arch import DEFAULT_ENERGY
from repro.intracore import CoreWorkload, PEArray, schedule_workload
from repro.intracore.result import IntraCoreResult
from repro.units import KB, MB
from repro.workloads.layer import LayerType

FREQ = 1e9
GLB_BYTES_PER_CYCLE = 64
VECTOR_LANES = 64
PSUM_BYTES = 4

#: (ifmap, weight, psum-pass) multipliers per loop order, from the
#: table in the tiling module's docstring.
ORDERS = (
    ("WS", lambda nk, nc, nh: (nk, 1, nc)),
    ("OS", lambda nk, nc, nh: (nk, nh, 1)),
    ("IS", lambda nk, nc, nh: (1, nh, nc)),
)


def tile_choices(dim, cap=8):
    """Powers of two below ``dim`` (at most ``cap - 1``), then ``dim``."""
    out = []
    t = 1
    while t < dim and len(out) < cap - 1:
        out.append(t)
        t *= 2
    return out + [dim]


def oracle(wl, glb_bytes, macs_per_core, energy=DEFAULT_ENERGY):
    glb_bw = GLB_BYTES_PER_CYCLE * FREQ
    if not wl.is_pe_workload():
        ops = wl.macs()
        traffic = wl.ifmap_bytes() + wl.ofmap_bytes()
        return IntraCoreResult(
            cycles=math.ceil(ops / VECTOR_LANES),
            compute_time=max(ops / (VECTOR_LANES * FREQ), traffic / glb_bw),
            if_fetches=1.0, w_fetches=1.0, of_writebacks=1.0,
            glb_bytes=traffic, reg_bytes=0.0,
            energy=ops * energy.e_vector + traffic * energy.e_glb,
            tiling=(wl.k, wl.c, wl.h), loop_order="VEC",
            fits=traffic <= glb_bytes,
        )

    pe = PEArray(macs_per_core)
    cycles = pe.cycles(wl)
    macs = wl.macs()
    bpe = wl.bytes_per_elem
    if_vol, w_vol, of_vol = wl.ifmap_bytes(), wl.weight_bytes(), wl.ofmap_bytes()
    budget = glb_bytes / 2
    read_if = cycles * pe.lanes_c * bpe
    reg = 2 * macs * bpe
    mac_j = macs * energy.e_mac
    reg_j = reg * energy.e_reg
    floor = cycles / FREQ

    best = best_cost = None
    smallest = smallest_ws = None
    for tk in tile_choices(wl.k):
        for tc in tile_choices(wl.c):
            for th in tile_choices(wl.h):
                nk, nc, nh = -(-wl.k // tk), -(-wl.c // tc), -(-wl.h // th)
                if wl.kind is LayerType.MATMUL:
                    w_tile = wl.b * tk * tc * bpe
                else:
                    w_tile = (tk * max(1, -(-tc // wl.groups))
                              * wl.r * wl.s * bpe)
                if_tile = wl.b * ((th - 1) * wl.stride + wl.r) * wl.in_w * tc * bpe
                of_tile = wl.b * th * wl.w * tk * (PSUM_BYTES if nc > 1 else bpe)
                ws = w_tile + if_tile + of_tile
                fits = ws <= budget
                for name, mults in ORDERS:
                    m_if, m_w, m_psum = mults(nk, nc, nh)
                    traffic = (if_vol * m_if + 2 * (w_vol * m_w)
                               + of_vol * (2 * m_psum - 1) + read_if)
                    if not fits:
                        traffic *= 4
                    e = mac_j + traffic * energy.e_glb + reg_j
                    time = max(floor, traffic / glb_bw)
                    res = IntraCoreResult(
                        cycles=cycles, compute_time=time,
                        if_fetches=float(m_if), w_fetches=float(m_w),
                        of_writebacks=float(m_psum), glb_bytes=traffic,
                        reg_bytes=float(reg), energy=e,
                        tiling=(tk, tc, th), loop_order=name, fits=fits,
                    )
                    if fits and (best is None or e * time < best_cost):
                        best, best_cost = res, e * time
                    if name == "WS" and (smallest is None or ws < smallest_ws):
                        smallest, smallest_ws = res, ws
    return best if best is not None else smallest


def random_workload(rng, kind):
    b = rng.choice([1, 2, 3, 8, 64])
    h = rng.choice([1, 3, 7, 14, 28, 56])
    w = rng.choice([1, 7, 14, 56])
    k = rng.choice([1, 5, 16, 64, 96, 384, 1000])
    c = rng.choice([1, 3, 16, 64, 192, 768])
    r = 1
    stride = 1
    groups = 1
    if kind in (LayerType.CONV, LayerType.DWCONV, LayerType.POOL):
        r = rng.choice([1, 3, 5, 7])
        stride = rng.choice([1, 2])
    if kind is LayerType.DWCONV:
        c = groups = k
    return CoreWorkload(kind=kind, b=b, k=k, h=h, w=w, c=c, r=r, s=r,
                        stride=stride, groups=groups,
                        bytes_per_elem=rng.choice([1, 2]))


def grouped_conv(rng):
    groups = rng.choice([2, 4, 32])
    wl = random_workload(rng, LayerType.CONV)
    return CoreWorkload(
        kind=LayerType.CONV, b=wl.b, k=groups * rng.choice([1, 2, 8]),
        h=wl.h, w=wl.w, c=groups * rng.choice([1, 3, 4]), r=wl.r, s=wl.s,
        stride=wl.stride, groups=groups, bytes_per_elem=wl.bytes_per_elem,
    )


def check(wl, glb_bytes, macs_per_core):
    got = schedule_workload(
        wl, glb_bytes=glb_bytes, macs_per_core=macs_per_core,
        frequency=FREQ, glb_bytes_per_cycle=GLB_BYTES_PER_CYCLE,
        vector_lanes=VECTOR_LANES, energy=DEFAULT_ENERGY,
    )
    assert got == oracle(wl, glb_bytes, macs_per_core), wl
    return got


PE_KINDS = (LayerType.CONV, LayerType.FC, LayerType.DWCONV, LayerType.MATMUL)
VECTOR_KINDS = (LayerType.POOL, LayerType.ELTWISE, LayerType.VECTOR)


@pytest.mark.parametrize("kind", PE_KINDS, ids=lambda k: k.value)
def test_pe_kinds_match_oracle(kind):
    rng = random.Random(f"pe-{kind.value}")
    fitted = 0
    for i in range(60):
        wl = random_workload(rng, kind)
        got = check(wl, glb_bytes=(256 * KB, 1 * MB, 2 * MB)[i % 3],
                    macs_per_core=(512, 1024, 2048)[i % 3])
        fitted += got.fits
    assert fitted  # the fitting branch was exercised


def test_grouped_conv_matches_oracle():
    rng = random.Random("grouped")
    for i in range(60):
        check(grouped_conv(rng), glb_bytes=(512 * KB, 2 * MB)[i % 2],
              macs_per_core=1024)


def test_nothing_fits_matches_oracle():
    """A GLB too small for any tile: smallest working set, WS order.

    Every tile holds at least one byte of each operand, so a 2-byte GLB
    (1-byte double-buffer budget) fits none."""
    rng = random.Random("tiny-glb")
    for i in range(40):
        wl = random_workload(rng, PE_KINDS[i % len(PE_KINDS)])
        got = check(wl, glb_bytes=2, macs_per_core=1024)
        assert not got.fits
        assert got.loop_order == "WS"


@pytest.mark.parametrize("kind", VECTOR_KINDS, ids=lambda k: k.value)
def test_vector_kinds_match_oracle(kind):
    rng = random.Random(f"vec-{kind.value}")
    for i in range(30):
        got = check(random_workload(rng, kind),
                    glb_bytes=(64, 1 * MB)[i % 2], macs_per_core=1024)
        assert got.loop_order == "VEC"
