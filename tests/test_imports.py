"""The import contract: every entry point loads only the modules it runs.

Package namespaces are lazy (``repro._lazy``), so what a process loads
is decided by what it imports, not by what a package re-exports.  These
tests pin module *sets*, never timings, each in a fresh interpreter so
the rest of the suite's imports cannot hide a regression:

* a streamed training (the ``train_file`` benchmark child's imports)
  loads no HTTP tier, no cluster and no experiment driver;
* the CLI module loads no asyncio and no serving registry until a
  serving target runs;
* a bare ``import repro`` loads none of the upper layers;
* once ``serve-http`` has loaded its engines — the point where it forks
  its members — serving every route imports nothing more;
* every package's ``__all__`` resolves and ``dir()`` lists it.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def _run(code: str):
    """Run ``code`` in a fresh interpreter; decode the JSON line it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    return _run(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")


def _under(modules: list[str], roots: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)]


def test_training_loads_no_http_tier_cluster_or_driver():
    loaded = _loaded_after(
        "import repro.experiments.config, repro.streaming.train, repro.serve.persist"
    )
    assert _under(loaded, (
        "asyncio",
        "http.client",
        "ssl",
        "multiprocessing",
        "concurrent.futures",
        "repro.cluster",
        "repro.experiments.classification",
        "repro.experiments.regression",
    )) == []


def test_cli_loads_no_http_tier():
    loaded = _loaded_after("import repro.experiments.__main__")
    assert _under(loaded, ("asyncio", "repro.serve.registry")) == []


def test_bare_import_loads_no_upper_layer():
    loaded = _loaded_after("import repro")
    assert _under(loaded, (
        "repro.serve", "repro.streaming", "repro.cluster", "repro.experiments",
    )) == []


def test_serving_every_route_imports_nothing_after_the_engines_load():
    code = textwrap.dedent("""
        import http.client, json, sys, tempfile
        from repro.experiments.config import ClassificationConfig, RegressionConfig
        from repro.experiments.serving import (
            train_classification_pipeline, train_regression_pipeline,
        )
        from repro.serve import ModelRegistry, ServerThread, prefork, save_model

        tmp = tempfile.mkdtemp()
        save_model(train_classification_pipeline(
            "suturing", config=ClassificationConfig(dim=256, seed=7)), tmp + "/c.npz")
        save_model(train_regression_pipeline(
            config=RegressionConfig(dim=256, seed=3)), tmp + "/r.npz")
        registry = ModelRegistry()
        registry.register("gestures", tmp + "/c.npz")
        registry.register("mars", tmp + "/r.npz")

        def one_round(server):
            return [
                server.request("GET", "/healthz")[0],
                server.request_text("GET", "/metrics")[0],
                server.request("GET", "/v1/models")[0],
                server.request("POST", "/v1/models/gestures:predict",
                               {"records": [[0.5] * 18, [1.5] * 18]})[0],
                server.request("POST", "/v1/models/gestures:predict",
                               {"features": [0.5] * 18})[0],
                server.request("POST", "/v1/models/mars:predict",
                               {"records": [[0.25]]})[0],
                server.request("POST", "/v1/models/mars:swap",
                               {"path": tmp + "/r.npz"})[0],
                server.request("GET", "/v1/nowhere")[0],
            ]

        with ServerThread(registry) as server:
            ready = set(sys.modules)
            first = one_round(server)
            after_first = set(sys.modules)
            second = one_round(server)
            after_second = set(sys.modules)
        registry.close()
        print(json.dumps({
            "statuses": [first, second],
            "first": sorted(after_first - ready),
            "second": sorted(after_second - after_first),
        }))
    """)
    result = _run(code)
    statuses = [200, 200, 200, 200, 200, 200, 200, 404]
    assert result["statuses"] == [statuses, statuses]
    assert result["first"] == []
    assert result["second"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        getattr(module, name)
        assert name in listed, f"{package}.{name} missing from dir()"


def test_unknown_names_still_raise_attribute_error():
    import repro.hdc

    with pytest.raises(AttributeError):
        repro.hdc.no_such_name  # noqa: B018
    assert not hasattr(repro, "no_such_subpackage")
