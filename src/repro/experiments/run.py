"""``python -m repro.experiments.run`` — the experiment pipeline's CLI.

The same command as ``python -m repro.pipeline`` (see
:mod:`repro.pipeline.cli`) under the name the regeneration recipes use:
one parser, one run path, every flag of the pipeline CLI.  Results are
stored in (and resumed from) ``<cache_dir>/results`` at any ``--jobs``;
``--no-store`` computes everything afresh without touching the store.

Examples
--------
Run Table III at the default (CPU-friendly) scale::

    python -m repro.experiments.run --experiment table3

Run every experiment on four workers and write the tables to a directory::

    python -m repro.experiments.run --experiment all --jobs 4 --output results/

Print the experiment registry as the table in ``docs/EXPERIMENTS.md``::

    python -m repro.experiments.run --list --markdown
"""

from ..pipeline.cli import main

__all__ = ["main"]

if __name__ == "__main__":
    raise SystemExit(main())
