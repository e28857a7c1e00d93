"""Unit coverage for the dataflow layer: CFG, reaching tags, ProjectIndex."""

import ast
import textwrap

from repro.analysis.dataflow import (
    ProjectIndex,
    analyze_tags,
    branch_guards,
    build_cfg,
    env_at,
    runtime_locals,
)


def _func(source: str) -> ast.FunctionDef:
    module = ast.parse(textwrap.dedent(source))
    func = module.body[0]
    assert isinstance(func, ast.FunctionDef)
    return func


def _node_at(cfg, lineno):
    for node in cfg.nodes:
        if node.lineno == lineno:
            return node
    raise AssertionError(f"no CFG node at line {lineno}")


class TestCfg:
    def test_synthetic_nodes_and_return_edge(self):
        cfg = build_cfg(_func("def f():\n    return 1\n"))
        assert cfg.entry.kind == "entry"
        assert cfg.exit.kind == "exit"
        assert cfg.raise_exit.kind == "raise_exit"
        ret = _node_at(cfg, 2)
        assert any(e.dst == cfg.exit.index for e in cfg.successors(ret.index))

    def test_raise_goes_to_raise_exit_not_exit(self):
        cfg = build_cfg(
            _func(
                """
                def f(x):
                    raise ValueError(x)
                """
            )
        )
        raise_node = _node_at(cfg, 3)
        dsts = {e.dst for e in cfg.successors(raise_node.index)}
        assert dsts == {cfg.raise_exit.index}
        # the normal exit is unreachable: nothing falls through
        assert cfg.exit.index not in cfg.reachable(cfg.entry.index)

    def test_if_none_test_annotates_guards(self):
        cfg = build_cfg(
            _func(
                """
                def f(runtime=None):
                    if runtime is not None:
                        runtime.charge_serial(1.0)
                    return 0
                """
            )
        )
        guards = {e.guard for e in cfg.edges if e.guard is not None}
        assert ("not_none", "runtime") in guards
        assert ("is_none", "runtime") in guards

    def test_forbidden_guard_blocks_reachability(self):
        cfg = build_cfg(
            _func(
                """
                def f(runtime=None):
                    if runtime is None:
                        return 0
                    return 1
                """
            )
        )
        reached = cfg.reachable(
            cfg.entry.index,
            forbidden_guards={("is_none", "runtime")},
        )
        assert _node_at(cfg, 4).index not in reached  # `return 0` pruned
        assert _node_at(cfg, 5).index in reached

    def test_loop_zero_trip_edge_is_distinguishable(self):
        cfg = build_cfg(
            _func(
                """
                def f(n):
                    total = 0
                    for i in range(n):
                        total += i
                    return total
                """
            )
        )
        assert any(e.zero_trip for e in cfg.edges)
        # forbidding zero-trip exits forces the walk through the body
        body = _node_at(cfg, 5).index
        ret = _node_at(cfg, 6).index
        reached = cfg.reachable(
            cfg.entry.index, blocked_nodes={body}, allow_zero_trip=False
        )
        assert ret not in reached
        reached = cfg.reachable(cfg.entry.index, blocked_nodes={body})
        assert ret in reached  # zero-trip path skips the blocked body

    def test_while_true_has_no_normal_exit(self):
        cfg = build_cfg(
            _func(
                """
                def f():
                    while True:
                        pass
                """
            )
        )
        assert cfg.exit.index not in cfg.reachable(cfg.entry.index)

    def test_break_exits_loop_normally(self):
        cfg = build_cfg(
            _func(
                """
                def f(n):
                    while True:
                        if n:
                            break
                    return n
                """
            )
        )
        assert cfg.exit.index in cfg.reachable(cfg.entry.index)

    def test_blocked_node_is_entered_but_not_traversed(self):
        cfg = build_cfg(
            _func(
                """
                def f(x):
                    x = x + 1
                    return x
                """
            )
        )
        mid = _node_at(cfg, 3).index
        reached = cfg.reachable(cfg.entry.index, blocked_nodes={mid})
        assert mid in reached
        assert _node_at(cfg, 4).index not in reached


class TestBranchGuards:
    def test_shapes(self):
        def guards(expr_src):
            return branch_guards(ast.parse(expr_src, mode="eval").body)

        assert guards("x is None") == (("is_none", "x"), ("not_none", "x"))
        assert guards("x is not None") == (("not_none", "x"), ("is_none", "x"))
        assert guards("x") == (("truthy", "x"), ("falsy", "x"))
        assert guards("not x") == (("falsy", "x"), ("truthy", "x"))
        assert guards("x > 2") == (None, None)


class TestReachingTags:
    @staticmethod
    def _classify(expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Call):
            callee = expr.func
            if isinstance(callee, ast.Name) and callee.id == "source":
                return frozenset({"hot"})
        return frozenset()

    def test_rebinding_clears_tags_flow_sensitively(self):
        func = _func(
            """
            def f():
                a = source()
                use(a)
                a = fresh()
                use(a)
            """
        )
        cfg = build_cfg(func)
        envs = analyze_tags(cfg, self._classify)
        assert env_at(envs, _node_at(cfg, 4).index)["a"] == frozenset({"hot"})
        assert env_at(envs, _node_at(cfg, 6).index).get("a", frozenset()) == frozenset()

    def test_join_unions_branch_facts(self):
        func = _func(
            """
            def f(flag):
                if flag:
                    a = source()
                else:
                    a = fresh()
                use(a)
            """
        )
        cfg = build_cfg(func)
        envs = analyze_tags(cfg, self._classify)
        assert env_at(envs, _node_at(cfg, 7).index)["a"] == frozenset({"hot"})

    def test_loop_reaches_fixed_point(self):
        func = _func(
            """
            def f(n):
                a = fresh()
                for _ in range(n):
                    a = source()
                use(a)
            """
        )
        cfg = build_cfg(func)
        envs = analyze_tags(cfg, self._classify)
        # may-analysis: after the loop `a` may carry the loop-body tag
        assert "hot" in env_at(envs, _node_at(cfg, 6).index)["a"]


class TestRuntimeLocals:
    def test_optional_and_definite(self):
        func = _func(
            """
            def f(graph, runtime=None):
                rt = runtime or SimRuntime(num_threads=1)
                alias = rt
                other = runtime
                return alias
            """
        )
        optional, definite = runtime_locals(func)
        assert "runtime" in optional and "other" in optional
        assert "rt" in definite and "alias" in definite

    def test_annotation_counts_as_runtime_param(self):
        func = _func(
            """
            def f(graph, sim: "SimRuntime"):
                return sim
            """
        )
        optional, _ = runtime_locals(func)
        assert "sim" in optional


class TestProjectIndex:
    def _index(self, **files):
        sources = [
            (path, ast.parse(textwrap.dedent(src)))
            for path, src in files.items()
        ]
        return ProjectIndex.from_sources(sources)

    def test_registration_literals(self):
        project = self._index(
            **{
                "pkg/solver.py": """
                from repro.engine.spec import register_solver


                @register_solver(
                    "demo",
                    kind="uds",
                    guarantee="exact",
                    cost="parallel",
                    supports_runtime=True,
                )
                def demo(graph, runtime=None):
                    runtime.parfor(1, None)
                    return 0
                """
            }
        )
        (reg,) = project.solvers()
        assert reg.name == "demo"
        assert reg.kind == "uds"
        assert reg.guarantee == "exact"
        assert reg.declared["supports_runtime"] is True
        assert reg.declared["supports_sanitize"] is False

    def test_charge_closure_is_transitive(self):
        project = self._index(
            **{
                "pkg/a.py": """
                def outer(graph, rt):
                    inner(graph, rt)
                """,
                "pkg/b.py": """
                def inner(graph, rt):
                    rt.charge_serial(1.0)
                """,
            }
        )
        (outer,) = project.functions_named("outer")
        assert project.function_charges(outer)

    def test_non_charging_builtin_is_not_a_charge(self):
        project = self._index(
            **{
                "pkg/a.py": """
                def f(graph, rt):
                    print(rt)
                    return isinstance(rt, object)
                """
            }
        )
        (fn,) = project.functions_named("f")
        assert not project.function_charges(fn)

    def test_manifest_record_shape(self):
        project = self._index(
            **{
                "pkg/solver.py": """
                @register_solver(
                    "demo",
                    kind="dds",
                    guarantee="2-approx",
                    cost="serial",
                )
                def demo(graph):
                    return 0
                """
            }
        )
        (record,) = project.contracts_manifest()
        assert record["name"] == "demo"
        assert set(record["declared"]) == {
            "runtime", "sanitize", "seed", "cluster"
        }
        assert set(record["inferred"]) == set(record["declared"])
        assert record["mismatches"] == []
