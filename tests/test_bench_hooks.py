"""The names the benchmark's tracer wraps still exist where it looks for them.

``perfbench/tracer.py`` patches persax from outside; a refactor that moves or
renames one of its targets would break the traced benchmark, not a test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("persax_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()


def test_every_traced_name_resolves():
    for module_name, attrs in tracer.LAYERS.values():
        module = importlib.import_module("persax." + module_name)
        for attr in attrs:
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                # Tracer._replace reads the member from the class body itself
                assert member in vars(getattr(module, owner_name)), attr
            else:
                assert callable(getattr(module, member)), attr


def test_every_miss_counter_reads_a_cache():
    for module_name, attr in tracer.MISSES.values():
        module = importlib.import_module("persax." + module_name)
        assert hasattr(getattr(module, attr), "cache_info"), attr


def test_verify_axiom_is_wrapped_by_name():
    assert callable(importlib.import_module("persax.axioms").verify_axiom)


OP = TRACER.with_name("op.py")


def _px_chains(tree: ast.AST) -> set[str]:
    """Every attribute chain read off the name ``px``, like ``px.formats.parse_pair``."""
    chains = set()
    for node in ast.walk(tree):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if parts and isinstance(base, ast.Name) and base.id == "px":
            chains.add(".".join(["px", *reversed(parts)]))
    return chains


def test_every_name_the_benchmark_reads_off_persax_resolves():
    import persax
    import persax.cli  # as op.py's own import does

    chains = _px_chains(ast.parse(OP.read_text(), str(OP)))
    assert {"px.pair_of", "px.formats.parse_pair", "px.cli.main"} <= chains
    for chain in sorted(chains):
        obj = persax
        for attr in chain.split(".")[1:]:
            assert hasattr(obj, attr), chain
            obj = getattr(obj, attr)
