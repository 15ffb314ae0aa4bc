"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import pkgutil
import typing
from pathlib import Path

import gapmc


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant check written as
    # one would silently stop running; the package raises real exceptions
    found = []
    for path in sorted(Path(gapmc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_function_the_benchmark_traces_exists():
    # bench/run.py --trace 1 wraps these by name; a renamed or removed
    # function would silently drop out of the per-layer report
    spans = Path(__file__).parents[1] / "bench" / "spans.py"
    table = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]
    )
    missing = []
    for module_name, names in table.items():
        module = importlib.import_module("gapmc." + module_name)
        for name in names:
            # spans wraps mg.closure on the graph class, the others on their module
            owner = module.MonotonicityGraph if (module_name, name) == ("mg", "closure") else module
            if not callable(getattr(owner, name, None)):
                missing.append(f"{module_name}.{name}")
    assert table and missing == []


def test_every_cache_is_bounded_and_lives_in_mg():
    # node positions and per-universe tables are worked out in mg alone, and
    # an unbounded module cache would grow for the life of the process
    uses = []
    for path in sorted(Path(gapmc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (getattr(node, "attr", None) or getattr(node, "id", None)) in ("lru_cache", "cache"):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses and {use.split(":")[0] for use in uses} == {"mg.py"}, uses
    mg = importlib.import_module("gapmc.mg")
    cached = [f for f in vars(mg).values() if hasattr(f, "cache_parameters")]
    assert len(cached) == len(uses)  # each use decorates a module-level function
    assert all(isinstance(f.cache_parameters()["maxsize"], int) for f in cached)


def test_every_tree_takes_equality_hash_and_operands_from_logic():
    # structural equality and hashing are decided once, in logic.Tree; each
    # node type only names its subtree fields, which are exactly its fields
    # that hold a tree, left to right
    for info in pkgutil.iter_modules(gapmc.__path__):
        importlib.import_module("gapmc." + info.name)
    Tree = importlib.import_module("gapmc.logic").Tree
    found, todo = set(), Tree.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if not cls.__module__.startswith("gapmc."):
            continue
        found.add(cls.__name__)
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            trees = tuple(k for k in cls.__dataclass_fields__
                          if isinstance(hints[k], type) and issubclass(hints[k], Tree))
            assert cls.operands == trees, cls
    assert {"Formula", "BoolExpr", "Diamond", "BNot"} <= found


# functions of the engine modules (mg, sets, logic, bisim), of gcs, reductions and
# oracle, and of the text edge (frontend, cli) that no module under src/gapmc
# or bench/ calls, kept because tests judge the engine or its formats by
# them, each with the reason
TEST_JUDGES = (
    ("compose", "the full-closure composition that compose_batch is checked against"),
    ("closure", "the canonical form, against the closure oracle of the property suites"),
    ("covers", "the covering order, which the pre* reference prunes with"),
    ("is_satisfiable", "satisfiability of one graph, for the references' unsat filters"),
    ("intersect", "graph intersection, to build guarded rule graphs in the references"),
    ("evaluate", "membership of one valuation in one graph, for brute-force checks"),
    ("from_constraint", "one graph from clauses, the tests' way to write a graph"),
    ("pre_constraint", "the per-graph predecessor that pre_action is checked against"),
    ("same_set", "set equality by denotation, how tests compare symbolic sets"),
    ("degree", "the degree of one graph or set, for the degree-discipline laws"),
    ("norm", "the norm of one graph, against which the Metrics max_norm is checked"),
    ("weight", "the weight of one edge, how tests read a graph edge by edge"),
    ("refine", "the maximal bisimulation, which judges equiv_check and criterion 6"),
    ("hm_formula", "one depth-k approximant formula, checked against refine_levels for coherence"),
    ("same_class", "whether two states share a class, how tests read a partition"),
    ("successors_in_window", "a valuation's successors in a window, by concrete stepping"),
    ("program_step", "the boolean program's own semantics, which judges its GCS embedding"),
    ("explicit_check", "one state's explicit verdict, against logic.check on hand-made cases"),
    ("qbf_eval", "the brute-force QBF value, which judges every qbf_to_gcs instance"),
    ("tokenize", "the lexer's positioned view, each token with its line and column, against a reference lexer"),
    ("serialize_lts", "the printer of the LTS format, the round-trip partner of parse_lts"),
    ("mg_to_json", "one graph as JSON, the round-trip partner of mg_from_json"),
    ("set_to_json", "one set as a JSON value, the round-trip partner of set_from_json"),
    ("serialize_qbf", "the printer of QBF text, the round-trip partner of parse_qbf"),
)


def _names(tree, skip=None):
    """The names that the code of tree refers to, outside the node skip:
    all of them (variables, attributes, imported names and string
    constants), and the attribute names alone."""
    out, attrs, todo = set(), set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return out | attrs, attrs


def test_every_engine_function_has_a_caller():
    # a function of the modules below that no code outside its own body refers to
    # is dead, unless tests judge the engine by it; a method counts only as
    # an attribute (x.name), not as a same-named local or string key.
    # Protocol methods (__eq__, ...) are called by the language and are not
    # checked
    pkg = Path(gapmc.__file__).parent
    files = sorted(pkg.glob("*.py")) + sorted((Path(__file__).parents[1] / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    judges = {name for name, _ in TEST_JUDGES}
    defined, uncalled = set(), []
    for module in ("mg.py", "sets.py", "logic.py", "bisim.py", "gcs.py", "reductions.py", "oracle.py",
                   "frontend.py", "cli.py"):
        own = trees[pkg / module]
        others = [_names(t) for t in trees.values() if t is not own]
        functions = [(d, False) for d in own.body]
        functions += [(m, True) for c in own.body if isinstance(c, ast.ClassDef) for m in c.body]
        for d, is_method in functions:
            if not isinstance(d, ast.FunctionDef):
                continue
            defined.add(d.name)
            if d.name.startswith("__") or d.name in judges:
                continue
            refs = set().union(*(names[is_method] for names in others + [_names(own, skip=d)]))
            if d.name not in refs:
                uncalled.append(f"{module}:{d.name}")
    assert uncalled == []
    assert judges <= defined  # no judge outlives its function


def test_nan_is_silenced_only_in_the_reference_closure():
    # +inf meets -inf in a closure's path sums as NaN; only a graph that
    # MonotonicityGraph.closure is given can hold +inf (make_set drops such
    # rows first), so every other closure runs with the invalid-value
    # warning on, which the test configuration turns into an error
    found = []
    for path in sorted(Path(gapmc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "mg.py":
            graph = next(c for c in tree.body if getattr(c, "name", None) == "MonotonicityGraph")
            closure = next(d for d in graph.body if getattr(d, "name", None) == "closure")
            allowed = set(map(id, ast.walk(closure)))
        found += [(path.name, node.lineno, id(node) in allowed) for node in ast.walk(tree)
                  if "errstate" in (getattr(node, "attr", None), getattr(node, "id", None))]
    assert found and all(inside for *_, inside in found), found


def test_token_positions_are_read_only_by_the_lexer_and_the_stream():
    # a parser reports a position through _Stream (fail, expect, take), so a
    # lexer that works positions out another way changes tokenize and
    # _Stream alone; ParseError keeps what it is given
    owners = {"tokenize", "_Stream", "ParseError"}
    found = []
    for path in sorted(Path(gapmc.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if path.name == "frontend.py" and getattr(top, "name", None) in owners:
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr in ("line", "col")]
    assert found == []


def _frontend_and_cli():
    pkg = Path(gapmc.__file__).parent
    return (ast.parse((pkg / "frontend.py").read_text()), ast.parse((pkg / "cli.py").read_text()))


def test_the_frontend_compiles_one_lexeme_pattern():
    # every token parser reads the tokens of one findall pass; the line-based
    # LTS format keeps its own line pattern, and the clause-group reading of
    # system texts has its group and rule patterns, spelled with the name and
    # number sub-patterns of the lexeme pattern; no parser compiles another
    frontend, _ = _frontend_and_cli()
    calls = [node for node in ast.walk(frontend) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) == "re"]
    assert [node.func.attr for node in calls] == ["compile"] * 4
    compiled = {top.targets[0].id: top.value for top in frontend.body
                if isinstance(top, ast.Assign) and top.value in calls}
    assert list(compiled) == ["_LEXEME", "_CLAUSE_GROUP", "_PLAIN_RULE", "_LTS_LINE"]
    term = next(top.value for top in frontend.body
                if isinstance(top, ast.Assign) and top.targets[0].id == "_TERM")
    for name in ("_LEXEME", "_CLAUSE_GROUP", "_PLAIN_RULE"):
        spelled = {n.id for n in ast.walk(compiled[name]) if isinstance(n, ast.Name)}
        if "_TERM" in spelled:
            spelled |= {n.id for n in ast.walk(term) if isinstance(n, ast.Name)}
        assert {"_NUM", "_NAME"} <= spelled, name


def test_cli_main_does_not_build_a_parser():
    # the argparse parser is built once, at import
    _, cli = _frontend_and_cli()
    main = next(top for top in cli.body if getattr(top, "name", None) == "main")
    assert "build_parser" not in _names(main)[0]
    assert "argparse" not in _names(main)[0]


# functions that call themselves by name, each with the reason; every other
# walk of a tree goes through logic.postorder or an explicit stack of its own
RECURSIVE = (
    ("frontend._parse_unary", "the descent of the formula parser, which refuses deep nesting"),
    ("frontend._parse_bool_atom", "the descent of the QBF parser, which refuses deep nesting"),
    ("oracle.explicit_denote", "the judge, kept textbook-plain and apart from the engine's walks"),
    ("oracle.random_formula.gen", "draws a formula no deeper than its depth argument, in the "
                                  "order that fixes every seeded corpus"),
)


def test_no_function_calls_itself_by_name():
    # a function or nested function calls itself as name(...), a method as
    # x.name(...), on any x but super(); each such call is one frame per
    # level of its input, so a long chain would raise RecursionError
    found = []
    for path in sorted(Path(gapmc.__file__).parent.glob("*.py")):
        todo = [(ast.parse(path.read_text(), str(path)), path.stem, False)]
        while todo:
            node, scope, in_class = todo.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    todo.append((child, scope, in_class))
                    continue
                name = f"{scope}.{child.name}"
                todo.append((child, name, isinstance(child, ast.ClassDef)))
                if isinstance(child, ast.ClassDef):
                    continue
                for call in ast.walk(child):
                    f = getattr(call, "func", None)
                    if in_class:
                        hit = (isinstance(f, ast.Attribute) and f.attr == child.name
                               and getattr(getattr(f.value, "func", None), "id", None) != "super")
                    else:
                        hit = isinstance(f, ast.Name) and f.id == child.name
                    if hit:
                        found.append(name)
                        break
    assert sorted(found) == sorted(name for name, _ in RECURSIVE)


# the functions outside mg that may convert between the full layout and the
# engine layout, which sets and the reachability engine keep: graphs and
# valuations enter, members and the JSON text leave, and complement enters
# the universe's floor table, not a row
LAYOUT_EDGE = {"sets.make_set", "sets.contains", "sets._pre_star_pool", "sets.SymbolicSet.members",
               "frontend.dump_set", "sets.complement"}


def test_the_layout_is_converted_only_at_the_edge():
    # Universe.enter and leave are named outside mg only by the edge
    # functions, and never inside a loop: the pool loop of _pre_star_pool,
    # pre_action and the set algebra read and return engine rows as they are
    found = []
    for path in sorted(Path(gapmc.__file__).parent.glob("*.py")):
        if path.name == "mg.py":
            continue
        todo = [(ast.parse(path.read_text(), str(path)), path.stem, False)]
        while todo:
            node, scope, in_loop = todo.pop()
            for child in ast.iter_child_nodes(node):
                named = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    named = f"{scope}.{child.name}"
                if isinstance(child, ast.Attribute) and child.attr in ("enter", "leave"):
                    found.append((named, in_loop))
                loop = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                todo.append((child, named, in_loop or isinstance(child, loop)))
    assert {"sets.make_set", "frontend.dump_set"} <= {name for name, _ in found}
    assert [use for use in found if use[0] not in LAYOUT_EDGE or use[1]] == []
