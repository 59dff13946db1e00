"""Repository hygiene: packaging, exports, layering, docstrings,
documentation."""

import ast
import importlib
import importlib.metadata
import pathlib
import pkgutil

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def all_repro_modules():
    package_dir = pathlib.Path(repro.__file__).parent
    names = ["repro"]
    for module in pkgutil.walk_packages([str(package_dir)], prefix="repro."):
        names.append(module.name)
    return names


class TestPackaging:
    def test_version(self):
        assert repro.__version__ == "2.0.0"
        # pyproject.toml reads its version from repro.__version__, so an
        # installed distribution (e.g. ``pip install -e .``) must agree.
        try:
            installed = importlib.metadata.version("repro")
        except importlib.metadata.PackageNotFoundError:
            return
        assert installed == repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        for module_name in (
            "repro.graphs",
            "repro.problems",
            "repro.errors",
            "repro.predictions",
            "repro.core",
            "repro.exec",
            "repro.faults",
            "repro.kernels",
            "repro.obs",
            "repro.simulator",
            "repro.algorithms.mis",
            "repro.algorithms.matching",
            "repro.algorithms.coloring",
            "repro.algorithms.edge_coloring",
            "repro.bench",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (module_name, name)

    def test_algorithms_import_no_compiled_layer(self):
        """Per-node programs see only ``NodeContext``; compiled forms see
        the CSR.  So no module under ``repro/algorithms/`` imports the
        runner, the init pass, the compiled forms or the CSR topology."""
        forbidden = (
            "repro.core.initpass",
            "repro.core.runner",
            "repro.kernels",
            "repro.graphs.csr",
        )
        root = pathlib.Path(repro.__file__).parent / "algorithms"
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                found.extend(
                    (path.relative_to(root).as_posix(), name)
                    for name in names
                    if any(
                        name == module or name.startswith(module + ".")
                        for module in forbidden
                    )
                )
        assert found == []

    def test_one_round_loop(self):
        """``SyncEngine`` holds the simulator's only round loop: no module
        but ``simulator/engine.py`` reaches for a run's setup phase, its
        scheduler's rounds or their finish (``simulator/scheduling.py``
        drives its kernel's ``run_round``)."""
        steps = {"_setup_phase", "run_round", "finish"}
        allowed = {"simulator/engine.py", "simulator/scheduling.py"}
        root = pathlib.Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            name = path.relative_to(root).as_posix()
            if name in allowed:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.extend(
                (name, node.lineno, node.attr)
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in steps
            )
        assert found == []

    @pytest.mark.parametrize("module_name", all_repro_modules())
    def test_every_module_imports_and_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_public_classes_have_docstrings(self):
        import inspect

        undocumented = []
        for module_name in all_repro_modules():
            module = importlib.import_module(module_name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module_name:
                    if not obj.__doc__:
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented


class TestDocumentation:
    def test_required_documents_exist(self):
        for filename in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / filename
            assert path.is_file(), filename
            assert len(path.read_text()) > 1000, filename

    def test_design_lists_every_experiment_bench(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_e*.py")):
            assert bench.name in design, bench.name

    def test_every_bench_has_an_experiments_entry(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_e*.py")):
            exp_id = bench.name.split("_")[1].upper().lstrip("E")
            assert f"E{int(exp_id)} " in experiments or f"E{int(exp_id)}/" in (
                experiments
            ) or f"E{int(exp_id)} —" in experiments, bench.name

    def test_examples_are_runnable_scripts(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 6
        for example in examples:
            content = example.read_text()
            assert 'if __name__ == "__main__":' in content, example.name
            assert "def main(" in content, example.name
            assert content.startswith("#!/usr/bin/env python3"), example.name
