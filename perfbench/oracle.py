"""Reference answers computed without solvkit.

Everything here is plain `fractions.Fraction` arithmetic on small dense
matrices, written from the definitions, so that a wrong answer from solvkit
cannot also be the expected answer.

Algebras are the semidirect products g = R x_D R^k: basis e_0 = t and
e_1..e_k spanning R^k, with [t, e_j] = sum_i D[i][j] e_i and every other
bracket zero. Jacobi holds for every D.
"""

from fractions import Fraction

# -- dense exact linear algebra ----------------------------------------------


def rref(rows):
    """Reduced row echelon form of a list of Fraction rows; returns (rows, pivots)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    return len(rref(rows)[1]) if rows else 0


def nullspace(rows, ncols):
    """Basis of {x : rows x = 0}."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def is_nilpotent(m):
    n = len(m)
    p = m
    for _ in range(n - 1):
        p = matmul(p, m)
    return all(x == 0 for row in p for x in row)


def signature(sym):
    """(positives, negatives) of a symmetric Fraction matrix by congruence."""
    m = [list(r) for r in sym]
    n = len(m)
    pos = neg = 0
    active = list(range(n))
    while active:
        k = next((i for i in active if m[i][i] != 0), None)
        if k is None:
            # zero diagonal: if some m[i][j] != 0, replace e_i by e_i + e_j
            pair = next(((i, j) for i in active for j in active
                         if m[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            continue
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            f = m[i][k] / d
            if f:
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
    return pos, neg


# -- the semidirect products -------------------------------------------------


def structure(d):
    """Dense structure constants c[i][j] = [e_i, e_j] of R x_D R^k."""
    k = len(d)
    n = k + 1
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(k):
        for i in range(k):
            c[0][j + 1][i + 1] = d[i][j]
            c[j + 1][0][i + 1] = -d[i][j]
    return c


def bracket(c, u, v):
    n = len(u)
    out = [0] * n
    for i in range(n):
        if u[i] == 0:
            continue
        for j in range(n):
            if v[j] == 0:
                continue
            f = u[i] * v[j]
            for m, x in enumerate(c[i][j]):
                if x:
                    out[m] += f * x
    return out


def apply(jm, v):
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in jm]


def nijenhuis_at(c, jm, a, b):
    """N(e_a, e_b) = [Je_a, Je_b] - J[Je_a, e_b] - J[e_a, Je_b] - [e_a, e_b]."""
    n = len(jm)
    ea = [int(i == a) for i in range(n)]
    eb = [int(i == b) for i in range(n)]
    ja, jb = apply(jm, ea), apply(jm, eb)
    t1 = bracket(c, ja, jb)
    t2 = apply(jm, bracket(c, ja, eb))
    t3 = apply(jm, bracket(c, ea, jb))
    t4 = bracket(c, ea, eb)
    return [w - x - y - z for w, x, y, z in zip(t1, t2, t3, t4)]


def nijenhuis_witness(c, jm):
    """First basis pair (a, b), a < b, with N(e_a, e_b) != 0, and its value."""
    for a, b in pairs(len(jm)):
        val = nijenhuis_at(c, jm, a, b)
        if any(val):
            return (a, b), val
    return None, None


def h1_answer(d):
    """{"h1", "h1_lie", "dimW"} of R x_D R^k with no holonomy.

    [g,g] = im D, so h1_lie = 1 + k - rank D. The nilradical is g when D is
    nilpotent and the abelian ideal R^k otherwise, so [g,g]/[n,n] has
    dimension 0 or rank D, and with no holonomy all of it counts.
    """
    r = rank(d)
    h1_lie = 1 + len(d) - r
    dim_w = 0 if is_nilpotent(d) else r
    return {"h1": h1_lie + dim_w, "h1_lie": h1_lie, "dimW": dim_w}


def pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def form_matrix(n, coeffs):
    m = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), x in coeffs.items():
        m[a][b] = x
        m[b][a] = -x
    return m


def closed_rows(c, n):
    """Rows in the coordinates omega_ab (a < b) whose kernel is the closed 2-forms.

    d omega(x, y, z) = -omega([x,y], z) + omega([x,z], y) - omega([y,z], x).
    """
    idx = {p: t for t, p in enumerate(pairs(n))}

    def put(row, m, k, f):
        if m == k or f == 0:
            return
        if m < k:
            row[idx[(m, k)]] += f
        else:
            row[idx[(k, m)]] -= f

    rows = []
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                row = [Fraction(0)] * len(idx)
                for m, f in enumerate(c[x][y]):
                    put(row, m, z, -f)
                for m, f in enumerate(c[x][z]):
                    put(row, m, y, f)
                for m, f in enumerate(c[y][z]):
                    put(row, m, x, -f)
                if any(row):
                    rows.append(row)
    return rows


def compatible_rows(jm, n):
    """Rows whose kernel is the 2-forms with omega(JX, JY) = omega(X, Y)."""
    ps = pairs(n)
    rows = []
    for a, b in ps:
        row = [Fraction(0)] * len(ps)
        # omega(J e_a, J e_b) = sum_{m,k} J[m][a] J[k][b] omega_mk
        for t, (m, k) in enumerate(ps):
            row[t] += jm[m][a] * jm[k][b] - jm[k][a] * jm[m][b]
        row[ps.index((a, b))] -= 1
        if any(row):
            rows.append(row)
    return rows


def classify_answer(d, jm, coeffs):
    """Expected (exit code, tag, signature) of `solvkit classify-form`."""
    n = len(jm)
    c = structure(d)
    witness, _ = nijenhuis_witness(c, jm)
    if witness is not None:
        return 1, "not_integrable", None
    vec = [coeffs.get(p, Fraction(0)) for p in pairs(n)]
    if any(sum(r * x for r, x in zip(row, vec)) for row in closed_rows(c, n)):
        return 0, "not_closed", None
    if any(sum(r * x for r, x in zip(row, vec)) for row in compatible_rows(jm, n)):
        return 0, "incompatible", None
    om = form_matrix(n, coeffs)
    # g(e_i, e_k) = omega(e_i, J e_k)
    gram = [[sum(om[i][m] * jm[m][k] for m in range(n)) for k in range(n)]
            for i in range(n)]
    if rank(gram) < n:
        return 0, "degenerate", None
    p, q = signature(gram)
    return 0, ("kahler" if q == 0 else "pseudo_kahler"), [p, q]


# -- palindromic quartics ----------------------------------------------------


def lattice_rule(p, q):
    """(classification, reason) of t^4 + p t^3 + q t^2 + p t + 1.

    With u = t + 1/t the quartic is t^2 Q(u), Q(u) = u^2 + p u + (q - 2).
    Roots t are real exactly when u is real and |u| >= 2, and of modulus one
    exactly when u is real and |u| <= 2, so integer arithmetic on
    disc = p^2 - 4(q - 2) and the signs of Q(2), Q(-2) decides every case.
    """
    disc = p * p - 4 * (q - 2)
    q_plus = q + 2 * p + 2
    q_minus = q - 2 * p + 2
    if disc == 0 or q_plus == 0 or q_minus == 0:
        return "excluded", "not_squarefree"
    if disc < 0:
        return "3b", "no_real_roots"
    if (q_plus < 0 and q_minus < 0) or (q_plus > 0 and q_minus > 0 and abs(p) > 4):
        return "3a", "all_roots_real"
    return "excluded", "unit_modulus_root"
