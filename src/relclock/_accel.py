"""Hot numeric kernels, vectorized in numpy.

``step_trajectory_chunk`` steps the linear unraveling and
``fv_drift_diffusion_step`` the classical sector of the hybrid evolver.  The
stepper draws no random numbers: each trajectory reads only its own rows of
the two-bit fields it is handed and writes only its own output slots, so
seeded results do not depend on how the trajectories are split into chunks.
It also takes the steps in blocks: the caller hands it one block of fields
at a time together with the states reached so far, so the fields it holds
are O(chunk * block) whatever the number of steps.

Step tables.  A step's increments take one of four values per jump, so the
step is one of 4^n_jump matrices M(c) = U + sum_k incr[k, c_k].  The stepper
takes the steps in groups of up to four fields, one byte: 4 // n_jump steps
for n_jump in {1, 2, 4}, one step otherwise.  A group's byte code, field i
of the group at bits 2 i, indexes a table of the group's step products
M(c_last) ... M(c_first), at most 256 of them; a step of more than four
jumps is one table per four of its jumps, U added to the first, and its
matrix is their sum.  A closed model steps by U alone.  The tables are
summed and multiplied in extended precision (``np.clongdouble``, wider than
double on x86) and rounded to complex once.  An entry that every group
applies, such as the decay amplitude U_00^4, then carries one rounding and
not one per product, whose bias would otherwise build up over every group of
a long run.

Grouping rule.  Groups start at step 0, at every save point and every
full group length after it, so a group never straddles a save, and the
leftover steps before a save form a shorter group with its own table.  The
boundaries follow from the global step index and the save stride alone; a
block edge also ends a group, and ``unravel_linear`` cuts its blocks only at
group boundaries, so its chunks, blocks and draw windows never change a
trajectory's bits.

Row layout.  The stepper holds a chunk as d contiguous rows of length
n_chunk, row j being component j of every trajectory, and builds each new
row with elementwise ufuncs over the entries (a, j) of the group's tables,
in table and column order: an entry that is exactly zero for every code is
skipped, one that is the same for every code is a scalar multiply of row j,
and only an entry that varies is gathered over the chunk with ``np.take``
on the codes.  For qubit decay that is one ``take`` and four ufunc calls per
four steps.  A skipped zero term is an exact zero for a finite state, and
adding an exact zero leaves a nonzero sum unchanged.  Every element of a
row goes through the same arithmetic, so a trajectory's bits depend neither
on its position in the row nor on the chunk size.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# linear-unraveling stepper
# ---------------------------------------------------------------------------

def _group_tables(u_step, incr, steps):
    """The byte tables of a group of ``steps`` steps, indexed by the code of
    the group's fields, field i at bits 2 i, built in extended precision and
    rounded to complex once.

    One step of at most four jumps has one table, of the 4^n_jump step
    matrices U + sum_k incr[k, c_k].  A step of more jumps has one table per
    four of its jumps, U in the first only, and its matrix is their sum.  A
    group of several steps multiplies them in step order: its last step's
    fields are the code's top bits, so entry hi * 4^(n_jump (steps - 1)) +
    lo is step matrix hi times the product that the earlier steps' code lo
    indexes.
    """
    n_jump, _, d, _ = incr.shape
    tables = []
    for first in range(0, max(n_jump, 1), 4):
        jumps = range(first, min(first + 4, n_jump))
        codes = np.arange(4 ** len(jumps))
        one = np.zeros((codes.size, d, d), dtype=np.clongdouble)
        if first == 0:
            one += u_step
        for i, k in enumerate(jumps):
            one += incr[k, (codes >> 2 * i) & 3]
        table = one
        for _ in range(steps - 1):
            table = (one[:, None] @ table[None, :]).reshape(-1, d, d)
        tables.append(table.astype(complex))
    return tables


def _group_terms(tables):
    """Per output row a, the terms (t, j, entry) of the entries (a, j) of
    table t that are nonzero for some code: ``entry`` is a complex constant,
    or the entry's values over the codes when they are not all equal."""
    d = tables[0].shape[1]
    terms = [[] for _ in range(d)]
    for t, table in enumerate(tables):
        nonzero = table.any(axis=0).tolist()
        varies = (table != table[0]).any(axis=0).tolist()
        for a in range(d):
            for j in range(d):
                if varies[a][j]:
                    terms[a].append((t, j, np.ascontiguousarray(table[:, a, j])))
                elif nonzero[a][j]:
                    terms[a].append((t, j, complex(table[0, a, j])))
    return terms


def _byte_codes(fields, lengths):
    """(n_byte, n_chunk) intp codes of the consecutive runs of ``lengths``
    (at most four each) of the (n_chunk, n_fields) ``fields``, field i of a
    run at bits 2 i.

    Each run is padded to four bytes, read as a little-endian uint32 with
    field i in byte i, and multiplied by 2^6 + 2^12 + 2^18 + 2^24, which
    adds field i at bit 24 + 2 i and leaves every other shifted copy in a
    bit pair of its own below bit 24 or past bit 31, so no sum carries.
    """
    if any(n != 4 for n in lengths):
        padded = np.zeros((len(fields), 4 * len(lengths)), dtype=np.uint8)
        ends = np.cumsum(lengths)
        padded[:, np.arange(ends[-1]) - np.repeat(ends - lengths - 4 * np.arange(len(lengths)),
                                                  lengths)] = fields
        fields = padded
    words = np.ascontiguousarray(fields).view("<u4") * np.uint32(0x01041040)
    words >>= 24
    return words.T.astype(np.intp, order="C")


def step_trajectory_chunk(psi, u_step, incr, noise, save_stride, out, step0=0):
    """Stochastic steps step0 + 1 .. step0 + n_block for a chunk of
    unnormalized trajectories.

    Step s takes psi <- (u_step + sum_k incr[k, noise[:, s, k]]) psi: the
    exact contraction exp(-i H_eff dt) plus the Ito-Euler noise coupling,
    applied one group of steps at a time through the tabulated products of
    the module docstring.

    psi: (n_chunk, d) states after global step ``step0``, advanced in place
    u_step: (d, d) one-step propagator of the effective Hamiltonian
    incr: (n_jump, 4, d, d), the noise term that field value c selects for
        jump k; ``unravel_linear`` passes xi_c sqrt(gamma_k) L_k with xi =
        sqrt(dt) * (1, i, -1, -i)
    noise: (n_chunk, n_block, n_jump) uint8 two-bit fields, field (s, k)
        of a row selecting jump k's term at step step0 + s + 1; any array of
        that shape (a strided view included)
    out: (n_chunk, n_save, d); the state after global step s is written to
        ``out[:, s // save_stride]`` whenever s is a multiple of save_stride
        (s = 0 included, when step0 is 0)
    """
    n_chunk, n_block, n_jump = noise.shape
    size = 4 // n_jump if n_jump in (1, 2, 4) else 1
    groups = []
    s, end = step0, step0 + n_block
    while s < end:
        into = s % save_stride
        stop = min(end, s - into + save_stride, s + size - into % size)
        groups.append((stop - s, stop))
        s = stop
    terms = {steps: _group_terms(_group_tables(u_step, incr, steps))
             for steps in {g for g, _ in groups}}
    n_tables = -(-n_jump // 4) or 1
    if n_jump:
        lengths = [min(4, steps * n_jump - i) for steps, _ in groups
                   for i in range(0, steps * n_jump, 4)]
        codes = _byte_codes(noise.reshape(n_chunk, n_block * n_jump), lengths)
    state = np.ascontiguousarray(psi.T)
    new = np.empty_like(state)
    scratch = np.empty(n_chunk, dtype=complex)
    if step0 == 0:
        out[:, 0, :] = psi
    code = 0
    for steps, stop in groups:
        for row, row_terms in zip(new, terms[steps]):
            if not row_terms:
                row[...] = 0.0
            for n, (t, j, entry) in enumerate(row_terms):
                dest = scratch if n else row
                if type(entry) is complex:
                    np.multiply(state[j], entry, out=dest)
                else:
                    entry.take(codes[code + t], out=dest, mode="wrap")
                    dest *= state[j]
                if n:
                    row += scratch
        code += n_tables
        state, new = new, state
        if stop % save_stride == 0:
            out[:, stop // save_stride, :] = state.T
    psi[...] = state.T
    return out


# ---------------------------------------------------------------------------
# finite-volume drift-diffusion step (classical sector of the hybrid evolver)
# ---------------------------------------------------------------------------

def fv_drift_diffusion_step(blocks, V, D, dz, dt):
    """One explicit Scharfetter-Gummel step with reflecting boundaries.

    blocks: (n_cells, d, d) complex cell weights, updated out of place
    V: (d, d) real entrywise drift velocities (drift-operator eigenbasis)
    D: scalar diffusion constant (>= 0)
    """
    if D > 0.0:
        p = V * dz / D
        with np.errstate(over="ignore"):
            bp = np.where(np.abs(p) < 1e-5, 1.0 - 0.5 * p + p * p / 12.0,
                          p / np.expm1(np.where(np.abs(p) < 1e-5, 1.0, p)))
            bm = np.where(np.abs(p) < 1e-5, 1.0 + 0.5 * p + p * p / 12.0,
                          -p / np.expm1(np.where(np.abs(p) < 1e-5, 1.0, -p)))
        flux = (D / dz) * (bm[None, :, :] * blocks[:-1] - bp[None, :, :] * blocks[1:])
    elif np.any(V != 0.0):
        vpos = np.clip(V, 0.0, None)[None, :, :]
        vneg = np.clip(V, None, 0.0)[None, :, :]
        flux = vpos * blocks[:-1] + vneg * blocks[1:]
    else:
        return blocks.copy()
    out = blocks.copy()
    out[:-1] -= (dt / dz) * flux
    out[1:] += (dt / dz) * flux
    return out
