"""Vanishing probes: the x at which j_x(f) = kring.j_map(x, f) is nonzero,
decided without building j_x(f).  nonvanishing_probes evaluates f's terms
once per call at one point past the root bound of every key's cleared
numerator, moves the term images one Weyl letter per probe, and compares
integers.  A term image is one int, the pairings <h_j, alpha> of its
alpha-part, packed from the l and m digits of f's own keys (keys.Layout)
as the bottom digits of the narrowest layout that holds every image.  They
name the j_x key without delta-normalization, and a letter is a digit read
and one multiple of a packed GCM column.  Only f's keys, coefficients and
the GCM are read; no Weight and no CoefQ is made.
"""

import operator
from math import prod

from .keys import key_layout
from .qpoly import peval


def nonvanishing_probes(f, xs):
    """The x in xs, in order, at which j_map(x, f) is nonzero.  Exact and
    deterministic; no Weight and no CoefQ is made.

    Write term t of f as q^(s_t) N_t / D_h(t) e^(mu_t), with D_1..D_k the
    distinct denominators of f.  Under j_x it lands on the key
    normalize(x(mu_t)) with the q-power e_t = s_t + n_t, n_t the delta part
    of x(mu_t).  Cleared by all k denominators, the sum on one key is
    q^(e_min) P / prod_h D_h with

        P = sum_t q^(e_t - e_min) N_t prod_{h != h(t)} D_h

    over the terms on that key, so it is zero iff P = 0.  P has integer
    coefficients, and for every probe and key

        |P|_inf <= |P|_1 <= B = sum_t |N_t|_1 prod_{h != h(t)} |D_h|_1,

    the sum now over all terms of f.  By Cauchy's bound every root z of a
    nonzero integer polynomial p_0 + ... + p_n q^n with p_n != 0 has
    |z| < 1 + max|p_i| / |p_n| <= 1 + |p|_inf.  At xi = B + 2 > 1 + |P|_inf a
    nonzero P therefore has P(xi) != 0, while P = 0 gives P(xi) = 0.  So xi
    and V_t = N_t(xi) prod_{h != h(t)} D_h(xi) are taken once per call, and
    a key vanishes iff sum_t V_t xi^(e_t - e_low) = 0 for any e_low <= e_min;
    a key with one term never does.  e_low is the key's own e_min, so no
    sum is wider than one key's spread of q-powers: a key's sum starts at
    its first image and is multiplied by xi^(e_low - e) when an image with
    a lower power e comes.  This is the evaluation step of the heuristic
    gcd GCDHEU (Char, Geddes and Gonnet 1989) without the gcd: a point
    beyond the root bound makes one integer comparison decide a polynomial
    identity.  The D_h are keyed by their exponent tuples (CoefQ.cyc), and
    each polynomial D_h is read once.

    A term image is one int, the key K: the vector Q = A m of the pairings
    <h_j, alpha> of its alpha-part alpha = sum m_j alpha_j, packed with
    digits Q_j + 2^(b-1) in base 2^b (digit j at bit b j).  Q names the
    j_x key: A delta = 0 makes Q blind to delta-normalization, and on
    normalized alpha (m[node0] = 0) Q is injective, for ker A = Z delta
    and marks[node0] = 1.  So two images share a K exactly when they share
    a key of j_x, and a letter needs no normalization.  s_i moves alpha by
    -p alpha_i with p = <h_i, mu> = l_i + Q_i, which changes Q by -p times
    column i of A: with C_i that column packed, p = l_i + digit_i(K) and
    K -= p C_i, and for i = node0 the delta part -p delta moves into the
    q-power, e -= p.

    The digits never carry.  With a = max |a_ij|, N the bound on every
    digit of f's keys (keys.Layout), R = max |l_i| <= N over the terms and
    Q0 = max |Q_j| <= 2 N at the start (Q_j = <h_j, mu> - l_j), a letter
    gives |p| <= R + |Q|_inf and |Q'_j| <= |Q_j| + a |p|, so
    |Q'|_inf + R <= (1 + a)(|Q|_inf + R), and after k letters
    |Q|_inf + R <= (1 + a)^k (Q0 + R) <= 3 N (1 + a)^k.  The keys take the
    least digit width b with 2^(b-1) above that bound at k the longest
    probe word, the width of keys.key_layout(cd, b - 1), so every digit
    stays in (0, 2^b) on every image the call makes.

    The images under x are those under s_i x, i = x.word[0], moved by s_i:
    weyl._from_rho_image strips the smallest left descent first, so the
    canonical word of s_i x is x.word[1:].  Images are kept per word for
    the call, which costs one letter per probe and term.  For verify's
    probes, the x with w not <= x, the parent s_i x < x of a probe is a
    probe too (w <= s_i x would give w <= x), so no other element is
    mapped."""
    xs = list(xs)
    if not f.keys or not xs:
        return []
    coefs = f.keys.values()
    dens = {c.cyc: c for c in coefs}  # one c per denominator
    norms = {h: sum(map(abs, c.den)) for h, c in dens.items()}
    whole = prod(norms.values())
    xi = 2 + sum(sum(map(abs, c.num)) * (whole // norms[c.cyc])
                 for c in coefs)
    at = {h: peval(c.den, xi) for h, c in dens.items()}
    others = {h: prod(v for k, v in at.items() if k != h) for h in at}
    values = [peval(c.num, xi) * others[c.cyc] for c in coefs]
    _, steps, keys = _pairing_keys(f, max(len(x.word) for x in xs))
    memo = {(): (keys, [c.shift for c in coefs])}
    powers = [1]  # xi^k
    out = []
    for x in xs:
        ks, es = _probe_images(steps, memo, x.word)
        sums = {}  # key -> [lowest q-power so far, sum from it]
        get = sums.get
        for k, e, v in zip(ks, es, values):
            acc = get(k)
            if acc is None:
                sums[k] = [e, v]
                continue
            low = acc[0]
            d = abs(e - low)
            while len(powers) <= d:
                powers.append(powers[-1] * xi)
            if e >= low:
                acc[1] += v * powers[d]
            else:
                acc[0] = e
                acc[1] = acc[1] * powers[d] + v
        if any(acc[1] for acc in sums.values()):
            out.append(x)
    return out


def _pairing_keys(f, letters):
    """(layout, steps, keys) for nonvanishing_probes: the narrowest layout
    whose digits hold every image after up to `letters` letters, the
    pairing key K of each term of f in its bottom digits, and per node i
    the letter's data (bit offset of digit i, digit mask, l_i - 2^(b-1) per
    term, C_i, i == node0).  l and m are read off f's own keys, and K is
    offset + sum_j m_j C_j, C_j the pairings <h_k, alpha_j> packed."""
    cd = f.cd
    gcm, rank = cd.gcm, cd.rank
    a = max(abs(x) for row in gcm for x in row)
    layout = key_layout(cd, (3 * f.bound * (1 + a) ** letters).bit_length())
    b, half, mask = layout.bits + 1, layout.half, layout.mask
    cols = [sum(gcm[j][i] << b * j for j in range(rank)) for i in range(rank)]
    offset = half * sum(1 << b * j for j in range(rank))
    own, fkeys, mul = f.layout, list(f.keys), operator.mul
    low, own_mask = own.half + half, own.mask  # a stored digit is x + own.half
    ls = [[(k >> s & own_mask) - low for k in fkeys]
          for s in own.coords[:rank]]
    ms = [[(k >> s & own_mask) - own.half for k in fkeys]
          for s in own.coords[rank:]]
    keys = [offset + sum(map(mul, m, cols)) for m in zip(*ms)]
    steps = [(b * i, mask, ls[i], cols[i], i == cd.node0) for i in range(rank)]
    return layout, steps, keys


def _probe_images(steps, memo, word):
    """The (keys, q-powers) of the term images under the element with
    canonical word `word`, from memo or by one letter from word[1:]."""
    got = memo.get(word)
    if got is None:
        got = memo[word] = _reflect_images(
            steps[word[0]], *_probe_images(steps, memo, word[1:]))
    return got


def _reflect_images(step, ks, es):
    """s_i applied to term images with packed pairing keys ks and q-powers
    es, step being node i's letter data from _pairing_keys."""
    shift, mask, lows, col, node0 = step
    if not node0:
        return [k - (low + (k >> shift & mask)) * col
                for k, low in zip(ks, lows)], es
    ps = [low + (k >> shift & mask) for k, low in zip(ks, lows)]
    return ([k - p * col for k, p in zip(ks, ps)],
            list(map(operator.sub, es, ps)))
