"""Each job that ROADMAP aim 2 says is done in one place is written once in src/: read from the source text,
with the standard library alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rflaf"


def _sources() -> dict:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_one_fork_one_shared_mapping_one_exp():
    # the worker pool (basis._Workers), its shared memory (basis._shared) and the Gaussian bump (basis.bumps)
    for call in ("os.fork(", "mmap.mmap(", "np.exp("):
        sites = [name for name, text in _sources().items() for _ in range(text.count(call))]
        assert sites == ["basis.py"], (call, sites)


def test_one_normal_cdf():
    # Phi is data._normal_cdf, in numpy passes: no Python float per element through math.erfc
    for call in ("math.erfc", "np.fromiter("):
        assert [name for name, text in _sources().items() if call in text] == [], call


def test_normal_cdf_picks_its_forms_alone():
    # Phi's form is chosen per element in data._normal_cdf alone: the quadrature sorts no pieces by it
    for call in ("argsort(", "searchsorted("):
        assert call not in _sources()["data.py"], call


def test_allocator_policy_only_in_the_cli():
    # cli.keep_heap, which cli.main calls: importing rflaf as a library leaves the host's allocator alone
    assert [name for name, text in _sources().items() if "mallopt" in text] == ["cli.py"]


def test_one_chunk_rule():
    # every chunk size in rows comes from basis.chunk_rows
    text = _sources()["basis.py"]
    rule = next(node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef) and node.name == "chunk_rows")
    for name, source in _sources().items():
        for number, line in enumerate(source.splitlines(), 1):
            if "CHUNK_CELLS //" in line:
                assert name == "basis.py" and rule.lineno <= number <= rule.end_lineno, (name, number, line)


def test_one_pool_variable_set_by_the_pool_alone():
    # basis._pool, which _Workers.__enter__ and __exit__ alone write: split_rows and kernel_workers read one state
    def globals_in(tree):
        return [(name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names]

    sites = {name: globals_in(ast.parse(text)) for name, text in _sources().items()}
    pool = next(node for node in ast.parse(_sources()["basis.py"]).body if getattr(node, "name", None) == "_Workers")
    assert {name: found for name, found in sites.items() if found} == {"basis.py": globals_in(pool)}
    assert {name for name, _ in globals_in(pool)} == {"_pool"}


def _package_imports() -> dict:
    """Module name -> the package modules it imports, at module or function level."""
    modules = {name.removesuffix(".py") for name in _sources()}
    graph = {}
    for name, text in _sources().items():
        found = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rflaf")):
                base = (node.module or "").removeprefix("rflaf").lstrip(".")  # `from .basis import x` imports basis
                found.update([base] if base else (alias.name for alias in node.names))
            elif isinstance(node, ast.Import):
                found.update(alias.name.removeprefix("rflaf.") for alias in node.names)
        graph[name.removesuffix(".py")] = found & modules
    return graph


def test_package_imports_form_no_cycle():
    # cli -> experiments -> configs -> the numerical modules: each imports the next at module level, none back
    graph = _package_imports()
    assert "experiments" in graph["cli"] and "configs" in graph["experiments"]
    done = set()
    while len(done) < len(graph):
        leaves = {name for name, imports in graph.items() if name not in done and imports <= done}
        assert leaves, {name: sorted(imports - done) for name, imports in graph.items() if name not in done}
        done |= leaves
    assert [name for name, text in _sources().items() if "TYPE_CHECKING" in text] == []
