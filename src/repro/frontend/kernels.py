"""Source-backed device-Python implementations of the app kernels.

Each kernel here is the restricted-Python source form whose §6.1 static
analysis extracts *exactly* the instruction mix declared for it in
``repro.apps`` — the contract ``tests/test_frontend_kernels.py`` checks.
The source is the register-allocated form the paper's pass sees: every
written operation counts, there is no CSE, and loop trip counts multiply
statically. Where the declared ``locality`` is a calibrated measurement
the analysis cannot derive (tiling, texture-cache effects), it is pinned
via ``@device_kernel(locality=...)``; streaming kernels are left unpinned
so the stride/reuse estimator itself produces the declared 0.0.

:func:`backed_kernel_ir` is the bridge the app modules use: it emits the
``KernelIR`` from the front end and fails fast (``ConfigurationError``)
if extraction ever drifts from the declared mix.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.frontend.decorator import DeviceKernel, device_kernel
from repro.kernelir.instructions import InstructionMix
from repro.kernelir.kernel import KernelIR

# --------------------------------------------------------- syclbench kernels


@device_kernel
def vec_add(gid, a, b, c):
    """Streaming vector addition c = a + b."""
    c[gid] = a[gid] + b[gid]


@device_kernel
def dram(gid, a, out):
    """DRAM copy stream with a one-element shift (the index add)."""
    out[gid + 1] = a[gid]


@device_kernel
def sf(gid, a, out):
    """Special-function throughput: a chain of 48 SFU ops per item."""
    x = a[gid]
    x = x * 1.0001
    x = x * 1.0001
    x = x * 1.0001
    x = x * 1.0001
    for k in range(12):
        x = exp(x)
        x = sin(x)
        x = cos(x)
        x = sqrt(x)
    out[gid] = x


@device_kernel
def arith(gid, a, out):
    """Mixed int/float ALU throughput microbenchmark (8 unrolled rounds)."""
    i = gid
    f = a[gid]
    for k in range(8):
        i = i + k
        i = i * 3
        i = i ^ 7
        i = i + 1
        i = i * 5
        i = i & 15
        i = i + 2
        i = i * 7
        i = i >> 1
        i = i + 3
        i = i + 4
        f = f + 1.5
        f = f * 1.25
        f = f + 2.5
        f = f * 0.75
        f = f + 0.5
        f = f * 1.5
        f = f + 3.5
        f = f * 0.5
        f = f + 4.5
        f = f * 2.0
    out[gid] = f


@device_kernel(locality=0.1)
def scalar_prod(gid, lid, a, b, out):
    """Dot-product partial: product into local memory, one tree step."""
    tile = local(f32, 256)
    tile[lid] = a[gid] * b[gid]
    barrier()
    s = tile[lid] + tile[lid]
    tile[lid] = s + s


@device_kernel(locality=0.35)
def median(gid, lid, a, out):
    """3x3 median filter: 20-op min/max selection network, local exchange."""
    tile = local(f32, 130)
    r0 = gid - 1
    r2 = gid + 1
    c0 = lid - 1
    c2 = lid + 1
    v00 = a[r0, c0]
    v01 = a[r0, lid]
    v02 = a[r0, c2]
    v10 = a[gid, c0]
    v11 = a[gid, lid]
    v12 = a[gid, c2]
    v20 = a[r2, c0]
    v21 = a[r2, lid]
    v22 = a[r2, c2]
    lo0 = min(v00, v01)
    hi0 = max(v00, v01)
    lo1 = min(v02, v10)
    hi1 = max(v02, v10)
    lo2 = min(v11, v12)
    hi2 = max(v11, v12)
    lo3 = min(v20, v21)
    hi3 = max(v20, v21)
    ma = min(hi0, hi1)
    mb = max(lo0, lo1)
    mc = min(hi2, hi3)
    md = max(lo2, lo3)
    me = min(ma, mc)
    mf = max(mb, md)
    mg = min(me, v22)
    mh = max(mf, v22)
    mi = min(mg, mh)
    mj = max(mg, mh)
    mk = max(mi, md)
    med = min(mk, mj)
    tile[lid + 1] = med
    barrier()
    res = tile[lid + 2]
    out[gid, lid] = res


@device_kernel(locality=0.45)
def gemm(gid, a0, a1, a2, a3, b0, b1, b2, b3, c):
    """Register-tiled GEMM: 4x4 panel products over 16 k-blocks."""
    acc = c[gid]
    for kb in range(16):
        col = gid + kb
        x0 = a0[gid, kb]
        x1 = a1[gid, kb]
        x2 = a2[gid, kb]
        x3 = a3[gid, kb]
        y0 = b0[col]
        y1 = b1[col]
        y2 = b2[col]
        y3 = b3[col]
        acc = acc + x0 * y0
        acc = acc + x0 * y1
        acc = acc + x0 * y2
        acc = acc + x0 * y3
        acc = acc + x1 * y0
        acc = acc + x1 * y1
        acc = acc + x1 * y2
        acc = acc + x1 * y3
        acc = acc + x2 * y0
        acc = acc + x2 * y1
        acc = acc + x2 * y2
        acc = acc + x2 * y3
        acc = acc + x3 * y0
        acc = acc + x3 * y1
        acc = acc + x3 * y2
        acc = acc + x3 * y3
    c[gid] = acc


@device_kernel(locality=0.88)
def sobel3(gid, img, out_gx, out_gy, out_mag, w: i32):  # noqa: F821
    """3x3 Sobel: generic unrolled convolutions + magnitude/orientation."""
    t = gid - w
    u = gid + w
    p00 = img[t - 1] * 0.0039
    p01 = img[t] * 0.0039
    p02 = img[t + 1] * 0.0039
    p10 = img[gid - 1] * 0.0039
    p11 = img[gid] * 0.0039
    p12 = img[gid + 1] * 0.0039
    p20 = img[u - 1] * 0.0039
    p21 = img[u] * 0.0039
    p22 = img[u + 1] * 0.0039
    gx = 0.0
    gx = gx + p00 * -1.0
    gx = gx + p01 * 0.0
    gx = gx + p02 * 1.0
    gx = gx + p10 * -2.0
    gx = gx + p11 * 0.0
    gx = gx + p12 * 2.0
    gx = gx + p20 * -1.0
    gx = gx + p21 * 0.0
    gx = gx + p22 * 1.0
    gy = 0.0
    gy = gy + p00 * -1.0
    gy = gy + p01 * -2.0
    gy = gy + p02 * -1.0
    gy = gy + p10 * 0.0
    gy = gy + p11 * 0.0
    gy = gy + p12 * 0.0
    gy = gy + p20 * 1.0
    gy = gy + p21 * 2.0
    gy = gy + p22 * 1.0
    sharp = 0.0
    sharp = sharp + p00 * -0.125
    sharp = sharp + p01 * -0.125
    sharp = sharp + p02 * -0.125
    sharp = sharp + p10 * -0.125
    sharp = sharp + p11 * 2.0
    sharp = sharp + p12 * -0.125
    sharp = sharp + p20 * -0.125
    sharp = sharp + p21 * -0.125
    sharp = sharp + p22 * -0.125
    ax = abs(gx)
    ay = abs(gy)
    mag = ax + ay
    s = mag + sharp
    e = sqrt(s)
    th = atan2(gy, gx)
    o = e + th
    m = max(o, 0.0)
    out_gx[gid] = gx
    out_gy[gid] = gy
    out_mag[gid] = m


@device_kernel(locality=0.30)
def black_scholes(gid, price, strike, expiry, vol, out_call, out_put):
    """European option pricing: erf-CND prices + pdf-based risk outputs."""
    s = price[gid]
    k = strike[gid]
    t = expiry[gid]
    sig = vol[gid]
    rat = s / k
    lm = log(rat)
    st = sqrt(t)
    vs = sig * st
    s2 = sig * sig
    h = s2 * 0.5
    dr = h + 0.02
    drt = dr * t
    num = lm + drt
    d1 = num / vs
    d2 = d1 - vs
    nd1 = -d1
    nd2 = -d2
    e1 = d1 * 0.70710678
    n1 = erf(e1)
    n1 = n1 + 1.0
    n1 = n1 * 0.5
    e2 = d2 * 0.70710678
    n2 = erf(e2)
    n2 = n2 + 1.0
    n2 = n2 * 0.5
    e3 = nd1 * 0.70710678
    nn1 = erf(e3)
    nn1 = nn1 + 1.0
    nn1 = nn1 * 0.5
    e4 = nd2 * 0.70710678
    nn2 = erf(e4)
    nn2 = nn2 + 1.0
    nn2 = nn2 * 0.5
    disc = exp(t * -0.02)
    c1 = s * n1
    kd = k * disc
    c2 = kd * n2
    call = c1 - c2
    p1 = kd * nn2
    put = p1 - s * nn1
    q1 = d1 * d1
    g1 = exp(q1 * -0.5)
    pdf1 = g1 * 0.39894228
    q2 = d2 * d2
    g2 = exp(q2 * -0.5)
    pdf2 = g2 * 0.39894228
    nv = pdf1 / sig
    nt = pdf2 / t
    i1 = tanh(d1)
    i2 = tanh(d2)
    ind = i1 + i2
    sq1 = sqrt(q1)
    sq2 = sqrt(q2)
    sd = sq1 + sq2
    ew = exp(0.0 - sd)
    el1 = call / s
    el2 = put / k
    o1 = el1 + nv
    o2 = el2 + nt
    o1 = o1 + ind
    o2 = o2 + ew
    out_call[gid] = o1
    out_put[gid] = o2


# ------------------------------------------------------- miniweather kernels


@device_kernel(locality=0.25)
def mw_tendencies_x(gid, state, flux, cell, tend):
    """x-direction tendencies: 12-point flux windows over 4 fields."""
    for f in range(4):
        acc0 = 0.0
        acc1 = 0.0
        acc2 = 0.0
        acc3 = 0.0
        for s in range(12):
            q = state[f, s, gid]
            r = flux[f, s, gid]
            acc0 += q * 0.25
            acc0 += r * 0.5
            acc1 += q * 0.75
            acc1 += r * 1.5
            acc2 += q * 2.0
            acc2 += r * 0.125
            acc3 += q * 3.0
            acc3 += r * 0.375
        t0 = cell[f, gid]
        h = acc0 - acc1
        v = acc2 - acc3
        tt = h + v
        tend[f, gid] = tt + t0


@device_kernel(locality=0.25)
def mw_tendencies_z(gid, state, flux, cell, metric, tend, srcout):
    """z-direction tendencies: adds metric terms and a source exponential."""
    for f in range(4):
        acc0 = 0.0
        acc1 = 0.0
        acc2 = 0.0
        acc3 = 0.0
        for s in range(12):
            q = state[f, s, gid]
            r = flux[f, s, gid]
            acc0 += q * 0.25
            acc0 += r * 0.5
            acc1 += q * 0.75
            acc1 += r * 1.5
            acc2 += q * 2.0
            acc2 += r * 0.125
            acc3 += q * 3.0
            acc3 += r * 0.375
        c0 = cell[f, gid]
        m = metric[f, gid]
        h = acc0 - acc1
        v = acc2 - acc3
        tt = h + v
        sx = exp(c0)
        tt = tt + m * 0.5
        tt = tt + sx * 0.25
        tt = tt + c0
        tend[f, gid] = tt
        srcout[f, gid] = sx


@device_kernel(locality=0.20)
def mw_semi_discrete_step(gid, fluxm, fluxp, init, out):
    """Semi-discrete state update: blended flux pairs plus a positivity clamp."""
    for f in range(4):
        acc = 0.0
        for s in range(7):
            q = fluxm[f, s, gid]
            r = fluxp[f, s, gid]
            acc += q * r
        i0 = init[f, gid]
        tt = acc + i0
        tt = tt * 0.5
        tt = tt + acc
        m = max(tt, 0.0)
        out[f, gid] = m


# -------------------------------------------------------- cloverleaf kernels


@device_kernel(locality=0.30)
def clover_ideal_gas(gid, density, energy, volume, mass, pressure, soundspeed):
    """Ideal-gas EoS with the generalized sound-speed response chain."""
    for f in range(4):
        d = density[f, gid]
        e = energy[f, gid]
        vol = volume[f, gid]
        m = mass[f, gid]
        rv = m / vol
        p = 0.4 * d
        p = p * e
        pbyrho = p / d
        cc = 1.4 * pbyrho
        c = sqrt(cc)
        dv = 1.0 / rv
        iv = 1.0 / vol
        q = e + pbyrho
        h = q + cc * 0.5
        z = h * d
        w = z + p
        r1 = w * dv
        r2 = r1 + c
        ss = sqrt(r2)
        t1 = ss * 0.5
        t2 = t1 + q
        u1 = t2 * 1.5
        u2 = u1 + h
        x1 = u2 * 0.25
        x2 = x1 + w
        y1 = x2 * iv
        y2 = y1 + c
        z1 = y2 * 0.75
        z2 = z1 + r2
        a1 = z2 * 1.25
        a2 = a1 + t2
        b1 = a2 * 0.5
        b2 = b1 * rv
        pressure[f, gid] = p
        soundspeed[f, gid] = b2


@device_kernel(locality=0.25)
def clover_flux_calc(gid, xarea, xvel0, xvel1, yarea, yvel0, yvel1,
                     cellx, celly, vol_flux_x, vol_flux_y):
    """Volume fluxes from face areas and the two velocity time levels."""
    for f in range(4):
        xa = xarea[f, gid]
        xv0 = xvel0[f, gid]
        xv1 = xvel1[f, gid]
        ya = yarea[f, gid]
        yv0 = yvel0[f, gid]
        yv1 = yvel1[f, gid]
        cx = cellx[f, gid]
        cy = celly[f, gid]
        sx = xv0 + xv1
        fx = xa * sx
        fx = fx * 0.25
        sy = yv0 + yv1
        fy = ya * sy
        fy = fy * 0.25
        dxf = fx + cx
        dyf = fy + cy
        m1 = dxf * 0.5
        m2 = dyf * 0.5
        a1 = m1 + fy
        a2 = m2 + fx
        b1 = a1 * 1.5
        b2 = a2 * 1.5
        c1 = b1 + dyf
        c2 = b2 + dxf
        d1 = c1 * 0.25
        d2 = c2 * 0.25
        e1 = d1 + a2
        e2 = d2 + a1
        vol_flux_x[f, gid] = e1
        vol_flux_y[f, gid] = e2


#: All source-backed kernels, keyed by the app-facing kernel name.
KERNELS: dict[str, DeviceKernel] = {
    dk.name: dk
    for dk in (
        vec_add, dram, sf, arith, scalar_prod, median, gemm, sobel3,
        black_scholes, mw_tendencies_x, mw_tendencies_z,
        mw_semi_discrete_step, clover_ideal_gas, clover_flux_calc,
    )
}


def backed_kernel_ir(
    name: str,
    declared: InstructionMix,
    work_items: int,
    locality: float,
) -> KernelIR:
    """Build a kernel's IR through the front end, cross-checked exactly.

    The returned IR is physically identical to the hand-declared one
    (same mix, geometry and locality — so sweep-cache fingerprints and
    golden traces are unchanged), but its mix now *comes from* static
    analysis of kernel source. Any drift between source and declaration
    raises :class:`ConfigurationError` at import time.
    """
    dk = KERNELS.get(name)
    if dk is None:
        raise ConfigurationError(f"no source-backed kernel named {name!r}")
    ir = dk.kernel_ir(work_items=work_items)
    if ir.mix != declared:
        extracted = {k: v for k, v in ir.mix.as_dict().items()}
        want = {k: v for k, v in declared.as_dict().items()}
        diff = {
            k: (extracted[k], want[k])
            for k in want
            if extracted[k] != want[k]
        }
        raise ConfigurationError(
            f"kernel {name!r}: extracted mix diverges from declared mix "
            f"(extracted, declared) per class: {diff}"
        )
    if ir.locality != locality:
        raise ConfigurationError(
            f"kernel {name!r}: front-end locality {ir.locality!r} != "
            f"declared {locality!r} (pin it via @device_kernel(locality=...))"
        )
    return ir
