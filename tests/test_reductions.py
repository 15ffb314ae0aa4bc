"""QBF -> boolean program -> system reduction."""

import itertools
import random
import time

import pytest

from gapmc import logic
from gapmc.gcs import validate
from gapmc.mg import Clause
from gapmc.oracle import qbf_eval
from gapmc.reductions import (
    BAnd,
    BNot,
    BOr,
    BVar,
    BooleanProgram,
    Qbf,
    _dnf,
    _guard_disjuncts,
    program_step,
    qbf_to_boolean_program,
    qbf_to_gcs,
)


def random_bool_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return BVar(rng.choice(names))
    kind = rng.choice(["not", "and", "or"])
    if kind == "not":
        return BNot(random_bool_expr(rng, names, depth - 1))
    cls = BAnd if kind == "and" else BOr
    return cls(random_bool_expr(rng, names, depth - 1), random_bool_expr(rng, names, depth - 1))


def eval_expr(e, env):
    if isinstance(e, BVar):
        return bool(env[e.name])
    if isinstance(e, BNot):
        return not eval_expr(e.f, env)
    if isinstance(e, BAnd):
        return eval_expr(e.left, env) and eval_expr(e.right, env)
    if isinstance(e, BOr):
        return eval_expr(e.left, env) or eval_expr(e.right, env)
    raise TypeError(e)


def program_reaches(p: BooleanProgram, start: str, env: dict, target: str) -> bool:
    """Explicit BFS over the (finite) program configuration graph."""
    seen = {(start, tuple(sorted(env.items())))}
    frontier = [(start, env)]
    while frontier:
        s, e = frontier.pop()
        if s == target:
            return True
        for (t, e2) in program_step(p, s, e):
            key = (t, tuple(sorted(e2.items())))
            if key not in seen:
                seen.add(key)
                frontier.append((t, e2))
    return False


def initial_env(p: BooleanProgram) -> dict:
    return {v: 0 for v in p.variables}


# -- qbf evaluation oracle sanity -------------------------------------------------


def test_qbf_eval_basics():
    x = BVar("x")
    assert qbf_eval(Qbf((("E", "x"),), x))
    assert not qbf_eval(Qbf((("A", "x"),), x))
    iff = BOr(BAnd(BVar("x"), BVar("y")), BAnd(BNot(BVar("x")), BNot(BVar("y"))))
    assert qbf_eval(Qbf((("A", "x"), ("E", "y")), iff))
    assert not qbf_eval(Qbf((("E", "x"), ("A", "y")), iff))


def test_qbf_eval_and_eval_match_the_recursive_reference():
    # qbf_eval folds the matrix over every assignment at once and then the
    # quantifiers; the reference recurses over the prefix, branch by branch,
    # and evaluates the matrix with eval_expr
    def reference(q, i=0, env=None):
        env = env or {}
        if i == len(q.prefix):
            return eval_expr(q.matrix, env)
        quant, var = q.prefix[i]
        branches = (reference(q, i + 1, {**env, var: b}) for b in (0, 1))
        return any(branches) if quant == "E" else all(branches)

    rng = random.Random(64)
    for _ in range(300):
        names = [f"x{i}" for i in range(1, rng.randint(2, 6))]
        q = Qbf(tuple((rng.choice("AE"), v) for v in names), random_bool_expr(rng, names, rng.randint(1, 5)))
        assert qbf_eval(q) == reference(q)
        env = {v: rng.randint(0, 1) for v in names}
        assert bool(q.matrix.eval(env)) == eval_expr(q.matrix, env)


# -- structural equality ------------------------------------------------------------


def _keys(e):
    """e's nodes numbered by structure, written apart from logic's numbering:
    a node's key is its type and its name or its operands' numbers, each
    distinct key numbered operands first; the keys in that order."""
    operands = lambda n: () if type(n) is BVar else (n.f,) if type(n) is BNot else (n.left, n.right)
    number, of = {}, {}
    for node in logic.postorder(e, operands):
        key = (type(node), node.name) if type(node) is BVar else (
            type(node), *[of[id(c)] for c in operands(node)])
        of[id(node)] = number.setdefault(key, len(number))
    return list(number)


def test_bool_exprs_are_equal_and_hash_alike_by_the_numbering_of_their_nodes():
    # each expression is drawn twice from one seed, so equal pairs of
    # distinct objects occur as often as unequal ones
    draw = lambda i: random_bool_expr(random.Random(i), ["x", "y"], random.Random(-i).randint(0, 3))
    exprs = [draw(i) for i in range(150)] + [draw(i) for i in range(150)]
    rng = random.Random(29)
    equal = unequal = 0
    for _ in range(3000):
        a, b = rng.choice(exprs), rng.choice(exprs)
        same = _keys(a) == _keys(b)
        assert (a == b) == same and (a != b) != same
        if same:
            assert hash(a) == hash(b)
        equal, unequal = equal + (same and a is not b), unequal + (not same)
    assert equal > 300 and unequal > 300
    assert len(set(exprs)) == len({tuple(_keys(e)) for e in exprs})


def test_a_bool_expr_never_equals_a_formula_of_the_same_shape():
    x = Clause("x", 0, 0)
    pairs = [
        (BVar("x"), logic.Atom(x)),
        (BNot(BVar("x")), logic.NotF(logic.Atom(x))),
        (BAnd(BVar("x"), BVar("x")), logic.AndF(logic.Atom(x), logic.Atom(x))),
        (BOr(BVar("x"), BNot(BVar("x"))), logic.OrF(logic.Atom(x), logic.NotF(logic.Atom(x)))),
    ]
    for e, f in pairs:
        assert e != f and f != e and not e == f
    mixed = {e for pair in pairs for e in pair} | {BNot(BVar("x")), logic.NotF(logic.Atom(x))}
    assert len(mixed) == len({type(m) for m in mixed}) == 2 * len(pairs)
    # nor is a matrix node taken for a formula node by the evaluator
    g, _, _ = qbf_to_gcs(Qbf((("E", "x"),), BVar("x")))
    with pytest.raises(TypeError, match="not a formula"):
        logic.denote(g, logic.NotF(BVar("x")))


# -- program level ------------------------------------------------------------------


def test_program_exists_x():
    q = Qbf((("E", "x"),), BVar("x"))
    p, start, target = qbf_to_boolean_program(q)
    assert program_reaches(p, start, initial_env(p), target)


def test_program_forall_x():
    q = Qbf((("A", "x"),), BVar("x"))
    p, start, target = qbf_to_boolean_program(q)
    assert not program_reaches(p, start, initial_env(p), target)


def test_program_forall_exists_iff():
    iff = BOr(BAnd(BVar("x"), BVar("y")), BAnd(BNot(BVar("x")), BNot(BVar("y"))))
    q = Qbf((("A", "x"), ("E", "y")), iff)
    p, start, target = qbf_to_boolean_program(q)
    assert program_reaches(p, start, initial_env(p), target)


def test_program_exists_forall_iff_false():
    iff = BOr(BAnd(BVar("x"), BVar("y")), BAnd(BNot(BVar("x")), BNot(BVar("y"))))
    q = Qbf((("E", "x"), ("A", "y")), iff)
    p, start, target = qbf_to_boolean_program(q)
    assert not program_reaches(p, start, initial_env(p), target)


def test_program_differential_vs_qbf_eval():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 3)
        names = [f"x{i}" for i in range(1, n + 1)]
        prefix = tuple((rng.choice("AE"), v) for v in names)
        q = Qbf(prefix, random_bool_expr(rng, names, rng.randint(1, 3)))
        p, start, target = qbf_to_boolean_program(q)
        assert program_reaches(p, start, initial_env(p), target) == qbf_eval(q)


# -- guard compilation -----------------------------------------------------------------


def test_guard_disjuncts_truth_tables():
    rng = random.Random(62)
    names = ["x", "y", "z"]
    for _ in range(300):
        e = random_bool_expr(rng, names, rng.randint(1, 4))
        disjuncts = _guard_disjuncts(e)
        for bits in itertools.product((0, 1), repeat=3):
            env = dict(zip(names, bits))
            via_dnf = any(
                all(env[v] == b for v, b in d.items()) for d in disjuncts
            )
            assert via_dnf == eval_expr(e, env)


def test_guard_disjuncts_none_is_single_empty():
    assert _guard_disjuncts(None) == [{}]


def _pairwise_absorption(guard):
    """The guard's disjuncts by the pairwise loop that the subset tests
    replaced, kept as their reference: each DNF disjunct is dropped if it
    implies a kept one, and drops the kept ones it is implied by."""
    kept = []
    for d in _dnf(guard):
        if any(all(d.get(x, None) == v for x, v in o.items()) for o in kept):
            continue
        kept = [o for o in kept if not all(o.get(x, None) == v for x, v in d.items())]
        kept.append(d)
    return sorted(kept, key=lambda d: sorted(d.items()))


def test_guard_disjuncts_match_the_pairwise_absorption():
    rng = random.Random(64)
    sizes = set()
    for _ in range(400):
        names = ["x", "y", "z", "w"][: rng.randint(1, 4)]
        e = random_bool_expr(rng, names, rng.randint(1, 5))
        got = _guard_disjuncts(e)
        assert got == _pairwise_absorption(e)
        sizes.add(min(len(got), 4))
    assert sizes == {0, 1, 2, 3, 4}


def test_guard_disjuncts_of_a_wide_matrix_finish_fast():
    # seven clauses of three distinct variables each: 3^7 disjuncts, none
    # absorbing another; the pairwise loop took seconds on them
    clauses = [BOr(BOr(BVar(f"x{i}a"), BVar(f"x{i}b")), BVar(f"x{i}c")) for i in range(7)]
    matrix = clauses[0]
    for c in clauses[1:]:
        matrix = BAnd(matrix, c)
    start = time.perf_counter()
    disjuncts = _guard_disjuncts(matrix)
    assert time.perf_counter() - start < 2.0
    assert len(disjuncts) == 3**7 and all(len(d) == 7 for d in disjuncts)
    # one clause a subset of another's literals: the longer one is absorbed
    assert _guard_disjuncts(BAnd(BOr(BVar("x"), BVar("y")), BVar("x"))) == [{"x": 1}]


# -- gcs level ----------------------------------------------------------------------------


def test_gcs_end_to_end_examples():
    x = BVar("x")
    iff = BOr(BAnd(BVar("x"), BVar("y")), BAnd(BNot(BVar("x")), BNot(BVar("y"))))
    cases = [
        (Qbf((("E", "x"),), x), True),
        (Qbf((("A", "x"),), x), False),
        (Qbf((("A", "x"), ("A", "y")), BOr(BVar("x"), BVar("y"))), False),
        (Qbf((("A", "x"), ("E", "y")), iff), True),
        (Qbf((("E", "x"), ("A", "y")), iff), False),
    ]
    for q, expect in cases:
        g, v0, f = qbf_to_gcs(q)
        assert validate(g) == []
        assert logic.check(g, v0, f) == expect


def test_gcs_random_differential():
    rng = random.Random(63)
    for _ in range(40):
        n = rng.randint(1, 3)
        names = [f"x{i}" for i in range(1, n + 1)]
        prefix = tuple((rng.choice("AE"), v) for v in names)
        q = Qbf(prefix, random_bool_expr(rng, names, rng.randint(1, 3)))
        g, v0, f = qbf_to_gcs(q)
        assert logic.check(g, v0, f) == qbf_eval(q)


def test_gcs_instances_are_window_closed():
    from gapmc.oracle import window_closed

    q = Qbf((("A", "x"), ("E", "y")), BOr(BVar("x"), BNot(BVar("y"))))
    g, v0, _ = qbf_to_gcs(q)
    n_states = max(g.consts)
    cert = window_closed(g, 0, n_states)
    assert cert.ok, cert.violation
    assert all(0 <= val <= n_states for val in v0.values())
