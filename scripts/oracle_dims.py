#!/usr/bin/env python3
"""Independent brute-force oracle for the operator-space dimension table.

Everything here is deliberately naive and separate from the package
internals: the structure tensor is expanded with its own insertion-sort
sign bookkeeping, the unknown matrices are kept dense (homogeneity enters
as extra equations rather than by restricting unknowns), every one of the
d^n argument tuples contributes rows, and the rank comes from a textbook
fraction Gaussian elimination.  Only the fixture *data* is shared with the
package: each fixture is read from its bundled document
``src/nhomlie/data/<name>.json`` with ``json`` and ``Fraction``, and no
package code is imported.  Run as a script, it recomputes the reference
dimension table and fails loudly on any mismatch.
"""

import json
import pathlib
from fractions import Fraction
from itertools import product

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "nhomlie" / "data"


def raw_data(path):
    """Plain-python copy of one bundled algebra document."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    dim = doc["dim"]
    table = {}
    for entry in doc["brackets"]:
        value = [Fraction(0)] * dim
        for term in entry["value"]:
            value[term["index"]] += Fraction(term["coeff"])
        table[tuple(entry["args"])] = tuple(value)
    alpha = [[Fraction(x) for x in row] for row in doc["alpha"]]
    return doc["arity"], dim, tuple(doc["parity"]), table, alpha


def sorted_value(t, parity, table, dim):
    """Bracket value on an arbitrary ordered tuple, insertion-sort signs."""
    seq = list(t)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            a, b = seq[j - 1], seq[j]
            if parity[a] == 1 and parity[b] == 1:
                pass  # moving one odd slot past another costs nothing
            else:
                sign = -sign
            seq[j - 1], seq[j] = b, a
            j -= 1
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1] and parity[seq[i]] == 0:
            return [Fraction(0)] * dim
    val = table.get(tuple(seq))
    if val is None:
        return [Fraction(0)] * dim
    return [sign * x for x in val]


def full_tensor(arity, dim, parity, table):
    return {t: sorted_value(t, parity, table, dim)
            for t in product(range(dim), repeat=arity)}


def mat_power(alpha, k, dim):
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
           for i in range(dim)]
    for _ in range(k):
        nxt = [[sum(out[i][l] * alpha[l][j] for l in range(dim))
                for j in range(dim)] for i in range(dim)]
        out = nxt
    return out


def gauss_rank(rows):
    """Textbook Gaussian elimination over Fraction; returns the rank."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = Fraction(1) / prow[col]
        rows[rank] = [x * inv for x in prow]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def bracket_with(tensor, arity, dim, args):
    """Multilinear expansion of the bracket on explicit coefficient vectors."""
    out = [Fraction(0)] * dim
    supports = [[(i, c) for i, c in enumerate(a) if c != 0] for a in args]
    for combo in product(*supports):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        val = tensor[tuple(i for i, _ in combo)]
        for l in range(dim):
            if val[l]:
                out[l] += coeff * val[l]
    return out


def prefix_sign(parity, t, s, xi):
    if xi == 0:
        return 1
    p = 0
    for i in t[:s]:
        p ^= parity[i]
    return -1 if p else 1


def space_dim(kind, data, k, xi):
    """Dimension of one operator space by dense brute-force assembly."""
    arity, dim, parity, table, alpha = data
    tensor = full_tensor(arity, dim, parity, table)
    ak = mat_power(alpha, k, dim)
    acols = [[ak[r][c] for r in range(dim)] for c in range(dim)]
    nblocks = {"Der": 1, "ZDer": 1, "C": 1, "QC": 1, "QDer": 2,
               "GDer": arity + 1, "Omega": 1}[kind]
    nun = dim * dim
    width = nblocks * nun

    def cell(block, r, c):
        return block * nun + r * dim + c

    rows = []
    # homogeneity of every block
    for b in range(nblocks):
        for r in range(dim):
            for c in range(dim):
                if parity[r] != (parity[c] ^ xi):
                    row = [Fraction(0)] * width
                    row[cell(b, r, c)] = Fraction(1)
                    rows.append(row)
    # commutation of every block with alpha
    for b in range(nblocks):
        for r in range(dim):
            for c in range(dim):
                row = [Fraction(0)] * width
                for j in range(dim):
                    row[cell(b, r, j)] += alpha[j][c]
                    row[cell(b, j, c)] -= alpha[r][j]
                rows.append(row)

    def slot_rows(block, s, t, factor, target):
        # factor * [a^k x1, ..., B(x_s), ..., a^k xn] added to target rows
        for j in range(dim):
            args = [acols[t[m]] if m != s else
                    [Fraction(1) if l == j else Fraction(0) for l in range(dim)]
                    for m in range(arity)]
            vec = bracket_with(tensor, arity, dim, args)
            for l in range(dim):
                if vec[l]:
                    target[l][cell(block, j, t[s])] += factor * vec[l]

    def value_rows(block, t, factor, target):
        val = tensor[t]
        for j in range(dim):
            if val[j]:
                for l in range(dim):
                    target[l][cell(block, l, j)] += factor * val[j]

    if kind != "Omega":
        for t in product(range(dim), repeat=arity):
            if kind == "Der":
                block_rows = [[Fraction(0)] * width for _ in range(dim)]
                for s in range(arity):
                    slot_rows(0, s, t, prefix_sign(parity, t, s, xi), block_rows)
                value_rows(0, t, Fraction(-1), block_rows)
                rows.extend(block_rows)
            elif kind == "ZDer":
                block_rows = [[Fraction(0)] * width for _ in range(dim)]
                slot_rows(0, 0, t, 1, block_rows)
                rows.extend(block_rows)
                block_rows = [[Fraction(0)] * width for _ in range(dim)]
                value_rows(0, t, Fraction(1), block_rows)
                rows.extend(block_rows)
            elif kind == "C":
                for s in range(arity):
                    block_rows = [[Fraction(0)] * width for _ in range(dim)]
                    slot_rows(0, s, t, prefix_sign(parity, t, s, xi), block_rows)
                    value_rows(0, t, Fraction(-1), block_rows)
                    rows.extend(block_rows)
            elif kind == "QC":
                for s in range(1, arity):
                    block_rows = [[Fraction(0)] * width for _ in range(dim)]
                    slot_rows(0, 0, t, 1, block_rows)
                    slot_rows(0, s, t, -prefix_sign(parity, t, s, xi), block_rows)
                    rows.extend(block_rows)
            elif kind == "QDer":
                block_rows = [[Fraction(0)] * width for _ in range(dim)]
                for s in range(arity):
                    slot_rows(0, s, t, prefix_sign(parity, t, s, xi), block_rows)
                value_rows(1, t, Fraction(-1), block_rows)
                rows.extend(block_rows)
            elif kind == "GDer":
                block_rows = [[Fraction(0)] * width for _ in range(dim)]
                slot_rows(0, 0, t, 1, block_rows)
                for s in range(1, arity):
                    slot_rows(s, s, t, prefix_sign(parity, t, s, xi), block_rows)
                value_rows(arity, t, Fraction(-1), block_rows)
                rows.extend(block_rows)

    joint_dim = width - gauss_rank(rows)
    if nblocks == 1:
        return joint_dim
    # project the joint solution space onto the leading block: solve for a
    # nullspace basis, then rank the leading coordinates
    basis = nullspace_basis(rows, width)
    lead = [v[:nun] for v in basis]
    if not lead:
        return 0
    return gauss_rank(lead)


def nullspace_basis(rows, width):
    """Naive nullspace: RREF, then one vector per free column."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    pivcols = []
    for col in range(width):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivcols.append(col)
        rank += 1
    free = [c for c in range(width) if c not in pivcols]
    out = []
    for f in free:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for r, c in enumerate(pivcols):
            v[c] = -rows[r][f]
        out.append(v)
    return out


def center_dim(data):
    arity, dim, parity, table, alpha = data
    tensor = full_tensor(arity, dim, parity, table)
    rows = []
    for rest in product(range(dim), repeat=arity - 1):
        for l in range(dim):
            rows.append([tensor[(i,) + rest][l] for i in range(dim)])
    if not any(any(r) for r in rows):
        return dim
    return dim - gauss_rank(rows)


def extension_data(data):
    """Two-block extension built directly from the defining rule."""
    arity, dim, parity, table, alpha = data
    ext_table = {}
    for key, val in table.items():
        ext_table[key] = tuple([Fraction(0)] * dim + list(val))
    ext_parity = parity + parity
    ext_alpha = [[Fraction(0)] * (2 * dim) for _ in range(2 * dim)]
    for r in range(dim):
        for c in range(dim):
            ext_alpha[r][c] = alpha[r][c]
            ext_alpha[dim + r][dim + c] = alpha[r][c]
    return arity, 2 * dim, ext_parity, ext_table, ext_alpha


# (fixture, kind, k, xi) -> expected dimension
REFERENCE_TABLE = [
    ("aff1", "Der", 0, 0, 2),
    ("aff1", "C", 0, 0, 1),
    ("aff1", "QC", 0, 0, 1),
    ("aff1", "QDer", 0, 0, 4),
    ("aff1", "GDer", 0, 0, 4),
    ("aff1", "ZDer", 0, 0, 0),
    ("homaff1", "Der", 1, 0, 1),
    ("super2", "Der", 0, 0, 1),
    ("super2", "Der", 0, 1, 1),
    ("threeLie4", "Der", 0, 0, 6),
    ("abelian2", "Der", 0, 0, 4),
    ("abelian2", "ZDer", 0, 0, 4),
    ("abelian2", "C", 0, 0, 4),
    ("abelian2", "QC", 0, 0, 4),
    ("abelian2", "QDer", 0, 0, 4),
    ("abelian2", "GDer", 0, 0, 4),
]

REFERENCE_CENTERS = [("aff1", 0), ("abelian2", 2), ("super2", 0), ("threeLie4", 0)]

# extension of aff1 at k=0, xi=0
REFERENCE_EXTENSION = [("Der", 10), ("ZDer", 6)]


def compute_reference():
    data = {path.stem: raw_data(path) for path in sorted(DATA.glob("*.json"))}
    dims = {(f, kind, k, xi): space_dim(kind, data[f], k, xi)
            for f, kind, k, xi, _ in REFERENCE_TABLE}
    centers = {f: center_dim(data[f]) for f, _ in REFERENCE_CENTERS}
    ext = extension_data(data["aff1"])
    ext_dims = {kind: space_dim(kind, ext, 0, 0) for kind, _ in REFERENCE_EXTENSION}
    ext_dims["center"] = center_dim(ext)
    return dims, centers, ext_dims


def main() -> int:
    dims, centers, ext_dims = compute_reference()
    bad = 0
    for f, kind, k, xi, want in REFERENCE_TABLE:
        got = dims[(f, kind, k, xi)]
        tag = "ok" if got == want else "MISMATCH"
        bad += got != want
        print(f"{tag}: {f:10s} {kind:5s} k={k} xi={xi}: dim {got} (expected {want})")
    for f, want in REFERENCE_CENTERS:
        got = centers[f]
        tag = "ok" if got == want else "MISMATCH"
        bad += got != want
        print(f"{tag}: {f:10s} center dim {got} (expected {want})")
    for kind, want in REFERENCE_EXTENSION:
        got = ext_dims[kind]
        tag = "ok" if got == want else "MISMATCH"
        bad += got != want
        print(f"{tag}: aff1-ext   {kind:5s} k=0 xi=0: dim {got} (expected {want})")
    want_center = 2
    got = ext_dims["center"]
    tag = "ok" if got == want_center else "MISMATCH"
    bad += got != want_center
    print(f"{tag}: aff1-ext   center dim {got} (expected {want_center})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
