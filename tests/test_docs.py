"""Doc-sync gate: the documentation must match the code it describes.

Three classes of drift are caught here:

* the generated experiment table in ``docs/EXPERIMENTS.md`` vs. the
  registry in :mod:`repro.experiments.plans` (``table_blackbox`` and
  ``table_defenses`` once existed in the registry but not in the README
  table);
* package ``__init__`` docstrings going thin or referencing names that
  no longer exist;
* relative links and anchors in the markdown tree going stale
  (``tools/check_links.py`` doubles as the library here).
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro
from repro.experiments.plans import (
    EXPERIMENTS,
    available_experiments,
    experiment_summaries,
    experiments_markdown_table,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import check_links  # noqa: E402

TABLE_BEGIN = "<!-- BEGIN GENERATED EXPERIMENT TABLE -->"
TABLE_END = "<!-- END GENERATED EXPERIMENT TABLE -->"


def _read(relpath):
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as handle:
        return handle.read()


class TestExperimentTable:
    def test_generated_table_matches_registry(self):
        """docs/EXPERIMENTS.md embeds exactly what --list --markdown prints."""
        page = _read("docs/EXPERIMENTS.md")
        assert TABLE_BEGIN in page and TABLE_END in page
        embedded = page.split(TABLE_BEGIN, 1)[1].split(TABLE_END, 1)[0].strip()
        regenerated = experiments_markdown_table().strip()
        assert embedded == regenerated, (
            "docs/EXPERIMENTS.md is stale — regenerate with "
            "`PYTHONPATH=src python -m repro.experiments.run --list --markdown`"
        )

    def test_every_experiment_has_a_summary(self):
        summaries = experiment_summaries()
        assert sorted(summaries) == sorted(EXPERIMENTS)
        for name, summary in summaries.items():
            assert summary and not summary.endswith("\n"), name
            assert len(summary) < 120, f"{name}: summary is not a single line"

    def test_every_experiment_appears_in_table(self):
        table = experiments_markdown_table()
        for name in EXPERIMENTS:
            assert f"`{name}`" in table

    def _run_cli(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.run", *argv],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_list_markdown_prints_the_embedded_table(self):
        proc = self._run_cli("--list", "--markdown")
        page = _read("docs/EXPERIMENTS.md")
        embedded = page.split(TABLE_BEGIN, 1)[1].split(TABLE_END, 1)[0]
        assert proc.stdout.strip() == embedded.strip()

    def test_list_output_is_sorted_registry(self):
        proc = self._run_cli("--list")
        listed = [line.split()[0] for line in proc.stdout.splitlines()
                  if line.strip() and not line.startswith(" ")]
        names = [name for name in listed if name in EXPERIMENTS]
        assert names == sorted(EXPERIMENTS)

    def test_registry_matches_worker_plans(self):
        """Every registry experiment is runnable through pipeline/serve."""
        assert set(available_experiments()) == set(EXPERIMENTS)


class TestDocstrings:
    def _packages(self):
        names = ["repro"]
        for module in pkgutil.iter_modules(repro.__path__, "repro."):
            if module.ispkg:
                names.append(module.name)
        return names

    def test_every_package_has_a_substantive_docstring(self):
        packages = self._packages()
        assert len(packages) >= 10  # the layer map in docs/ARCHITECTURE.md
        for name in packages:
            module = importlib.import_module(name)
            doc = module.__doc__ or ""
            assert len(doc.strip()) > 120, (
                f"{name}/__init__.py docstring is too thin — every package "
                "is documented per docs/ARCHITECTURE.md"
            )

    def test_docstring_references_resolve(self):
        """Names cited as :func:`x`/:class:`x` in package docstrings exist."""
        pattern = re.compile(r":(?:func|class|data):`~?([\w.]+)`")
        for name in self._packages():
            module = importlib.import_module(name)
            for reference in pattern.findall(module.__doc__ or ""):
                if reference.startswith("repro."):
                    continue  # cross-package references checked by import
                target = module
                resolved = True
                for attr in reference.split("."):
                    if not hasattr(target, attr):
                        resolved = False
                        break
                    target = getattr(target, attr)
                assert resolved, (
                    f"{name} docstring references {reference!r} "
                    "which the package does not export"
                )


class TestLinks:
    def test_documentation_tree_has_no_broken_links(self):
        files = check_links.documentation_files()
        assert any(path.endswith("README.md") for path in files)
        assert any(os.sep + "docs" + os.sep in path for path in files)
        errors = []
        for path in files:
            errors.extend(check_links.check_file(path))
        assert not errors, "\n".join(errors)

    def test_readme_links_the_docs_index(self):
        readme = _read("README.md")
        for page in ("docs/ARCHITECTURE.md", "docs/SERVING.md",
                     "docs/EXPERIMENTS.md", "benchmarks/TRACING.md"):
            assert page in readme, f"README.md no longer links {page}"

    def test_slug_rules(self):
        assert check_links.github_slug("Store-salt rules") == "store-salt-rules"
        assert check_links.github_slug("`repro.serve` — the daemon") == \
            "reproserve--the-daemon"

    def test_checker_flags_broken_link(self, tmp_path):
        # The checker itself must fail on genuinely broken links; otherwise
        # the CI docs job is a no-op.
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](./does-not-exist.md)\n",
                       encoding="utf-8")
        inside = os.path.join(REPO_ROOT, "docs", "_tmp_probe.md")
        with open(inside, "w", encoding="utf-8") as handle:
            handle.write("see [missing](./does-not-exist.md) and "
                         "[anchor](ARCHITECTURE.md#no-such-heading)\n")
        try:
            errors = check_links.check_file(inside)
        finally:
            os.remove(inside)
        assert len(errors) == 2
        assert "does-not-exist.md" in errors[0]
        assert "no-such-heading" in errors[1]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
