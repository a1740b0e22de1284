"""The four benchmark workloads.

Every workload is a set of attack requests, served through one of the
repo's execution paths:

* ``attack_default`` and ``attack_paper_shape`` call the attack engines
  in-process;
* ``tables_pipeline`` regenerates Table III and ``table_blackbox`` through
  ``PipelineSession(jobs=2)``;
* ``serve_cells`` drives an in-process ``AttackServer(jobs=2)`` with two
  closed-loop client threads.

A run measures a fixed number of rounds.  Each round computes a fresh set
of results (cold); rounds differ in their scenes or attack seeds, all
derived from the benchmark seed.  The pipeline and serve workloads then
request the results again (warm), which are store reads, until the run's
``--seconds`` are used.
``README.md`` beside this file says which layers each workload stresses.
"""

from __future__ import annotations

import os
import pickle
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro
from repro import datasets
from repro.core import AttackConfig, run_attack
from repro.core.attack import run_attack_on_arrays
from repro.experiments import (ExperimentConfig, ExperimentContext,
                               plan_table3, plan_table_blackbox)
from repro.experiments.cells import execute_plan
from repro.experiments.table3 import MODELS as TABLE3_MODELS
from repro.pipeline import PipelineSession, ResultStore
from repro.serve import AttackServer, Client, ServeError, ServerThread

import victims

#: Least number of warm rounds per cold round.
WARM_ROUNDS = 3

ROOM_TYPES = ("office", "conference", "hallway", "lobby")
FIELDS = ("color", "coordinate", "both")


@dataclass
class Measurement:
    """Raw observations of one measured pass of a workload."""

    #: One entry per cold round: its wall time, its throughput and the
    #: latencies of its computing requests.
    cold_s: List[float] = field(default_factory=list)
    steps_per_s: List[float] = field(default_factory=list)
    computed_s: List[List[float]] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    cached_s: List[float] = field(default_factory=list)
    adv_accuracy: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Layer facts only the workload can see (pipeline reports, serve
    #: counters, store traffic), reported by the traced run.
    layers: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation or correctness check; remember a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def add_layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + value


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def fresh_import() -> None:
    """Import the framework in a fresh interpreter, as every CLI run does.

    Each workload's set-up starts with it, so a change that slows the
    imports shows in ``setup_s``.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import repro.experiments, repro.pipeline, repro.serve", src],
        check=True)


def _fresh_dir(parent: str, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=parent)


def _store_layers(m: Measurement, stats: Dict[str, Any]) -> None:
    for key in ("hits", "misses", "bytes_read", "bytes_written"):
        m.add_layer(f"pipeline.store.{key}", float(stats.get(key, 0)))


class Workload:
    """Shared constructor and no-op hooks."""

    name = ""
    ROUNDS = 1

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        """One-off work kept out of every timing: victim training."""
        victims.load_default_victims(self.root)

    def teardown(self, state: Any) -> None:
        pass

    def measure(self, state: Any, seconds: float) -> Measurement:
        """Cold rounds, then warm rounds over all their results.

        ``cold_round`` returns the round's warm request, or ``None`` where
        there is no store to serve one.  The warm phase cycles through the
        rounds, ``WARM_ROUNDS`` times each and until the run has lasted
        ``seconds``.
        """
        m = Measurement()
        start = time.perf_counter()
        warms = [self.cold_round(state, index, m)
                 for index in range(self.ROUNDS)]
        warms = [warm for warm in warms if warm is not None]
        turn = 0
        while warms and (turn < WARM_ROUNDS * len(warms)
                         or time.perf_counter() - start < seconds):
            round_start = time.perf_counter()
            warms[turn % len(warms)](m)
            m.warm_s.append(time.perf_counter() - round_start)
            turn += 1
        return m


# ---------------------------------------------------------------------- #
# In-process attacks
# ---------------------------------------------------------------------- #
@dataclass
class Cell:
    """One attack request: a victim, an attack configuration, a scene."""

    arch: str
    attack: str
    run: Callable[[], List[Any]]

    @property
    def label(self) -> str:
        return f"{self.arch}/{self.attack}"


def _record(result) -> Dict[str, Any]:
    finite = bool(np.isfinite(result.adversarial_coords).all()
                  and np.isfinite(result.adversarial_colors).all())
    return {"scene": result.scene_name, "iterations": int(result.iterations),
            "accuracy": float(result.outcome.accuracy),
            "clean_accuracy": float(result.outcome.clean_accuracy),
            "finite": finite}


class InProcessAttacks(Workload):
    """Cold rounds of the two in-process attack workloads (no warm phase:
    there is no store)."""

    def cells(self, state: Any, index: int) -> List[Cell]:
        raise NotImplementedError

    def check_run(self, m: Measurement,
                  done: List[Tuple[Cell, List[Dict[str, Any]]]]) -> None:
        """Correctness checks over every cell of the run."""
        raise NotImplementedError

    def cold_round(self, state: Any, index: int, m: Measurement) -> None:
        done: List[Tuple[Cell, List[Dict[str, Any]]]] = []
        latencies: List[float] = []
        steps = 0
        start = time.perf_counter()
        for cell in self.cells(state, index):
            try:
                results, elapsed = _timed(cell.run)
            except Exception as error:  # noqa: BLE001 — counted, reported
                m.check(False, f"{cell.label}: {error!r}")
                continue
            m.check(True, cell.label)
            latencies.append(elapsed)
            records = [_record(result) for result in results]
            done.append((cell, records))
            for record in records:
                steps += record["iterations"]
                m.adv_accuracy.append(record["accuracy"])
        m.cold_s.append(time.perf_counter() - start)
        m.steps_per_s.append(steps / sum(latencies))
        m.computed_s.append(latencies)
        state.setdefault("done", []).extend(done)
        if index == self.ROUNDS - 1:
            self.check_run(m, state["done"])


class AttackDefault(InProcessAttacks):
    """White-box attacks at default scale on all four trained victims."""

    name = "attack_default"
    ROUNDS = 3
    STEPS = 10
    EOT_STEPS = 5

    def setup(self) -> Dict[str, Any]:
        fresh_import()
        models = victims.load_default_victims(self.root)
        scenes = [datasets.generate_room_scene(
            num_points=320, room_type=ROOM_TYPES[i % len(ROOM_TYPES)],
            rng=np.random.default_rng([self.seed, i]),
            name=f"bench_{self.seed}_{i}") for i in range(self.ROUNDS)]
        # Warm-up: one reporting forward per victim loads lazy state.
        for model in models.values():
            victims.self_labelled(model, scenes[0])
        return {"models": models, "scenes": scenes}

    def configs(self) -> List[Tuple[str, Dict[str, Any]]]:
        configs = []
        for method in ("bounded", "unbounded"):
            for field_name in FIELDS:
                configs.append((f"{method}/{field_name}", dict(
                    method=method, field=field_name,
                    bounded_steps=self.STEPS, unbounded_steps=self.STEPS)))
        configs.append(("eot/jitter", dict(
            method="bounded", field="color", bounded_steps=self.EOT_STEPS,
            adaptive=True, defense="jitter",
            defense_kwargs={"sigma": 0.03, "color_sigma": 0.05},
            eot_samples=2)))
        return configs

    def cells(self, state: Dict[str, Any], index: int) -> List[Cell]:
        scene = state["scenes"][index]
        cells = []
        for arch, model in state["models"].items():
            for number, (label, overrides) in enumerate(self.configs()):
                # target_accuracy=-1 disables convergence: fixed work.
                config = AttackConfig.fast(
                    target_accuracy=-1.0, batch_scenes=1,
                    seed=self.seed * 1000 + index * 100 + number,
                    **overrides)
                cells.append(Cell(
                    arch, label, lambda model=model, config=config: [
                        run_attack(model, scene, config)]))
        return cells

    def check_run(self, m, done) -> None:
        """Every cloud is finite; every configuration lowers accuracy.

        Accuracy is averaged per configuration over the four victims and
        every scene of the run.  Per victim, a ten-step coordinate-only
        attack on PointNet++ leaves accuracy unchanged or higher on one
        scene in five (measured on 40 scenes), so a per-victim check
        would fail by chance on about one seed in twenty.
        """
        by_attack: Dict[str, List[Dict[str, Any]]] = {}
        for cell, records in done:
            for record in records:
                m.check(record["finite"], f"{cell.label} on "
                        f"{record['scene']}: adversarial cloud is finite")
                by_attack.setdefault(cell.attack, []).append(record)
        for attack, records in by_attack.items():
            adv = float(np.mean([r["accuracy"] for r in records]))
            clean = float(np.mean([r["clean_accuracy"] for r in records]))
            m.check(adv < clean, f"{attack}: adv_accuracy {adv:.3f} below "
                                 f"clean accuracy {clean:.3f}")


class AttackPaperShape(InProcessAttacks):
    """4096 points, hidden 64: fast bounded colour, exact unbounded coords."""

    name = "attack_paper_shape"
    STEPS = 2

    def prepare(self) -> None:
        """Paper-shape victims are untrained: nothing to prepare."""

    def setup(self) -> Dict[str, Any]:
        fresh_import()
        models = victims.build_paper_shape_victims()
        scene = datasets.generate_room_scene(
            num_points=victims.PAPER_SHAPE_POINTS,
            room_type=ROOM_TYPES[self.seed % len(ROOM_TYPES)],
            rng=np.random.default_rng([self.seed, 4096]),
            name=f"bench_paper_{self.seed}")
        labelled = {arch: victims.self_labelled(model, scene)
                    for arch, model in models.items()}
        return {"models": models, "labelled": labelled, "scene": scene.name}

    def cells(self, state: Dict[str, Any], index: int) -> List[Cell]:
        cells = []
        for arch, model in state["models"].items():
            coords, colors, labels = state["labelled"][arch]
            configs = (
                ("bounded/color/fast", AttackConfig.fast(
                    method="bounded", field="color", bounded_steps=self.STEPS,
                    target_accuracy=-1.0, seed=self.seed * 1000 + 1)),
                ("unbounded/coordinate/exact", AttackConfig.paper_scale(
                    method="unbounded", field="coordinate",
                    unbounded_steps=self.STEPS, target_accuracy=-1.0,
                    seed=self.seed * 1000 + 2)),
            )
            for label, config in configs:
                cells.append(Cell(
                    arch, label,
                    lambda model=model, config=config, c=coords, k=colors,
                    y=labels: [run_attack_on_arrays(
                        model, config, c, k, y,
                        rng=np.random.default_rng(config.seed),
                        scene_name=state["scene"])]))
        return cells

    def check_run(self, m, done) -> None:
        by_arch: Dict[str, List[Dict[str, Any]]] = {}
        for cell, records in done:
            by_arch.setdefault(cell.arch, []).extend(records)
        for arch in victims.ARCHS:
            records = by_arch.get(arch, [])
            m.check(bool(records) and all(r["finite"] for r in records),
                    f"{arch}: adversarial clouds are finite")
            accuracy = (np.mean([r["accuracy"] for r in records])
                        if records else 1.0)
            m.check(accuracy < 1.0, f"{arch}: accuracy against its own "
                                    f"labels {accuracy:.4f} below 1.0")


# ---------------------------------------------------------------------- #
# Pipeline: Table III + table_blackbox
# ---------------------------------------------------------------------- #
def _table3_findings(m: Measurement, table, where: str) -> None:
    """The Table III findings ``benchmarks/bench_table3_degradation.py``
    asserts, counted as checks."""
    cells = table.metadata["cells"]
    for model in TABLE3_MODELS:
        unbounded = cells[f"{model}/unbounded"]["summary"]
        noise = cells[f"{model}/noise"]["summary"]
        bounded = cells[f"{model}/bounded"]["summary"]
        name = f"table3 {model} ({where})"
        m.check(unbounded.clean_accuracy > 0.7,
                f"{name}: clean accuracy > 0.7")
        m.check(unbounded.average.accuracy < 0.5 * unbounded.clean_accuracy,
                f"{name}: unbounded collapses accuracy")
        m.check(unbounded.average.accuracy < noise.average.accuracy,
                f"{name}: unbounded beats noise")
        m.check(noise.average.accuracy > 0.5 * noise.clean_accuracy,
                f"{name}: noise stays weak")
        m.check(unbounded.worst.accuracy <= bounded.worst.accuracy + 0.15,
                f"{name}: Finding 2 on the worst cloud")


class TablesPipeline(Workload):
    """Table III and table_blackbox through ``PipelineSession(jobs=2)``.

    Round ``r`` regenerates both tables for ``ExperimentConfig(seed=s)``,
    ``s = 1000 * seed + r``: the seed picks the attack scenes, while the
    victims are the cached ones trained at seed 0.
    """

    name = "tables_pipeline"
    ROUNDS = 2
    JOBS = 2

    def setup(self) -> Dict[str, Any]:
        fresh_import()
        return {"run_dir": _fresh_dir(self.work, "tables-")}

    def teardown(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["run_dir"], ignore_errors=True)

    def cold_round(self, state: Dict[str, Any], index: int, m: Measurement):
        seed = 1000 * self.seed + index
        round_dir = _fresh_dir(state["run_dir"], f"round{index}-")
        config = ExperimentConfig.default(
            cache_dir=victims.seeded_cache_dir(self.root, round_dir, seed),
            seed=seed)
        store = ResultStore(_fresh_dir(round_dir, "store-"))
        session = PipelineSession(jobs=self.JOBS, store=store, quiet=True)
        context = ExperimentContext(config, pipeline=session)

        def regenerate() -> List[Tuple[Any, Any]]:
            return [(execute_plan(plan(config), context), session.last_report)
                    for plan in (plan_table3, plan_table_blackbox)]

        cold, elapsed = _timed(regenerate)
        m.cold_s.append(elapsed)
        _table3_findings(m, cold[0][0], f"seed {seed}")
        cold_bytes = [pickle.dumps(table) for table, _ in cold]

        keys: List[str] = []
        latencies: List[float] = []
        steps = 0
        for _, report in cold:
            m.add_layer("pipeline.busy_s",
                        sum(r.elapsed for r in report.records))
            m.add_layer("pipeline.slot_s", report.wall_time * report.jobs)
            m.add_layer("pipeline.tasks", float(len(report.records)))
            for record in report.records:
                m.check(record.status == "ran",
                        f"task {record.task_id} {record.status}")
                if record.kind != "attack_cell":
                    continue
                latencies.append(record.elapsed)
                keys.append(record.key)
                for entry in store.get(record.key)["records"]:
                    steps += int(entry["iterations"])
                    if not record.task_id.endswith("/noise"):
                        m.adv_accuracy.append(entry["outcome"].accuracy)
        m.steps_per_s.append(steps / elapsed)
        m.computed_s.append(latencies)
        _store_layers(m, store.session_stats())

        def warm(m: Measurement) -> None:
            before = store.session_stats()
            for (table, _), expected in zip(regenerate(), cold_bytes):
                m.check(pickle.dumps(table) == expected,
                        f"warm {table.name} is byte-identical to the cold one")
            for key in keys:
                m.cached_s.append(_timed(lambda: store.get(key))[1])
            after = store.session_stats()
            _store_layers(m, {k: after[k] - before.get(k, 0) for k in after})

        return warm


# ---------------------------------------------------------------------- #
# Serve: attack_cell jobs against an in-process AttackServer
# ---------------------------------------------------------------------- #
class ServeCells(Workload):
    """Two closed-loop clients against ``AttackServer(jobs=2)``.

    Round ``r`` submits 18 distinct ``attack_cell`` jobs (three victims ×
    two methods × three fields) on two scenes of room type ``r mod 4``,
    which all compute; its warm rounds re-request them, and all of those
    are store reads.
    """

    name = "serve_cells"
    ROUNDS = 3
    JOBS = 2
    CLIENTS = 2
    STEPS = 12
    #: Scenes per job.  Jobs that compute for a quarter second or more
    #: keep the round's time dominated by attack work rather than by the
    #: request round trip, which swings with the load on the machine.
    SCENES = 2
    ARCHS = ("pointnet2", "resgcn", "randlanet")

    def job(self, seed: int, arch: str, method: str, field_name: str,
            room_type: str = "office") -> Dict[str, Any]:
        return {"model": arch, "dataset": "s3dis",
                "pool": {"dataset": "s3dis", "count": self.SCENES,
                         "room_type": room_type},
                "attack": {"objective": "degradation", "method": method,
                           "field": field_name, "target_accuracy": -1.0,
                           "bounded_steps": self.STEPS,
                           "unbounded_steps": self.STEPS, "seed": seed}}

    def jobs(self, index: int) -> List[Dict[str, Any]]:
        specs = [(arch, method, field_name) for arch in self.ARCHS
                 for method in ("bounded", "unbounded")
                 for field_name in FIELDS]
        room_type = ROOM_TYPES[index % len(ROOM_TYPES)]
        return [self.job(self.seed * 1000 + index * 100 + number, *spec,
                         room_type=room_type)
                for number, spec in enumerate(specs)]

    def setup(self) -> Dict[str, Any]:
        fresh_import()
        run_dir = _fresh_dir(self.work, "serve-")
        config = ExperimentConfig.default(
            cache_dir=victims.seeded_cache_dir(self.root, run_dir, self.seed),
            seed=self.seed)
        store_dir = os.path.join(run_dir, "store")
        thread = ServerThread(AttackServer(config, jobs=self.JOBS,
                                           store=store_dir))
        client = Client(thread.start())
        # Warm-up: one job per worker builds its dataset and victims.
        warmups = [self.job(-1 - i, "pointnet2", "bounded", "color")
                   for i in range(self.JOBS)]
        self._closed_loop(client, warmups, lambda *_: None)
        return {"run_dir": run_dir, "thread": thread, "client": client,
                "store": ResultStore(store_dir)}

    def teardown(self, state: Dict[str, Any]) -> None:
        state["thread"].stop(drain=True)
        shutil.rmtree(state["run_dir"], ignore_errors=True)

    def _closed_loop(self, client: Client, jobs: List[Dict[str, Any]],
                     done: Callable[[int, float, Any], None]) -> None:
        """Each client thread sends its next job when the last one returned."""
        pending: "queue.Queue[Tuple[int, Dict[str, Any]]]" = queue.Queue()
        for item in enumerate(jobs):
            pending.put(item)

        def client_loop() -> None:
            while True:
                try:
                    index, params = pending.get_nowait()
                except queue.Empty:
                    return
                start = time.perf_counter()
                try:
                    response = client.run("attack_cell", params)
                except (ServeError, OSError) as error:
                    response = error
                done(index, time.perf_counter() - start, response)

        threads = [threading.Thread(target=client_loop)
                   for _ in range(min(self.CLIENTS, len(jobs)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def cold_round(self, state: Dict[str, Any], index: int, m: Measurement):
        client: Client = state["client"]
        jobs = self.jobs(index)
        computed: Dict[int, Dict[str, Any]] = {}
        latencies: List[float] = []
        lock = threading.Lock()

        def computed_done(number: int, elapsed: float, response: Any) -> None:
            with lock:
                ok = isinstance(response, dict) and not response["cached"]
                if m.check(ok, f"job {number} computes: {response!r}"):
                    latencies.append(elapsed)
                    computed[number] = response

        _, elapsed = _timed(
            lambda: self._closed_loop(client, jobs, computed_done))
        m.cold_s.append(elapsed)
        steps = 0
        for response in computed.values():
            payload = state["store"].get(response["job_id"])
            for record in payload["records"]:
                steps += int(record["iterations"])
                m.adv_accuracy.append(record["outcome"].accuracy)
            status = client.status(response["job_id"])
            compute = status["elapsed"] or 0.0
            latency = status["finished_at"] - status["created_at"]
            m.add_layer("serve.compute_s", compute)
            m.add_layer("serve.queue_wait_s", max(latency - compute, 0.0))
        m.steps_per_s.append(steps / elapsed)
        m.computed_s.append(latencies)

        def cached_done(number: int, elapsed: float, response: Any) -> None:
            with lock:
                ok = (isinstance(response, dict) and number in computed
                      and response["result"] == computed[number]["result"])
                if m.check(ok, f"cached job {number} equals its computed "
                               f"payload"):
                    m.cached_s.append(elapsed)

        def warm(m: Measurement) -> None:
            self._closed_loop(client, jobs, cached_done)
            stats = client.stats()
            for key in ("computed", "dedup_store", "dedup_inflight"):
                m.layers[f"serve.{key}"] = float(stats["jobs"][key])
            for key in ("hits", "misses", "bytes_read", "bytes_written"):
                m.layers[f"pipeline.store.{key}"] = float(
                    stats["store"].get(key, 0))

        return warm


WORKLOADS = {cls.name: cls for cls in (AttackDefault, AttackPaperShape,
                                       TablesPipeline, ServeCells)}
