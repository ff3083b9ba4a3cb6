"""Driving one benchmark job: a child interpreter, its pipes, its checks.

Each job runs ``bench/child.py`` in a fresh interpreter. Set-up time is
measured from launch to the child's ``ready``, job time from ``ready`` to
``done``, and peak RSS from ``wait4``. Outputs are checked before the job
counts as passed.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import parse_lines, to_float
from workloads import STREAM_N_TRAIN

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0     # a run must end within 180 s


class JobError(Exception):
    """A child that could not be driven to the end of its job."""


class LineReader:
    """Reads lines from a pipe, giving up at a deadline."""

    def __init__(self, fd: int, deadline: float):
        self.fd, self.deadline, self.buf = fd, deadline, b""

    def readline(self) -> str | None:
        """The next line, or None at end of file."""
        while b"\n" not in self.buf:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                raise JobError("timed out waiting for the child")
            chunk = os.read(self.fd, 65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


class Child:
    """A fresh interpreter running ``bench/child.py`` for one CLI job.

    The child reports ``ready`` and ``done`` on a private pipe, so setup
    and job time are split without touching the CLI's own stdout.
    """

    def __init__(self, env, cli_args, workdir: Path, deadline: float,
                 trace_path: Path | None = None, stream: bool = False):
        read_fd, write_fd = os.pipe()
        self.err_path = workdir / "stderr.txt"
        cmd = [sys.executable, str(BENCH / "child.py"), str(write_fd),
               str(trace_path) if trace_path else "-", *cli_args]
        pipe = subprocess.PIPE if stream else subprocess.DEVNULL
        with open(self.err_path, "wb") as err:
            self.t_launch = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                         pass_fds=(write_fd,), stdin=pipe,
                                         stdout=pipe, stderr=err)
        os.close(write_fd)
        self.read_fd = read_fd
        self.control = LineReader(read_fd, deadline)
        self.out = LineReader(self.proc.stdout.fileno(), deadline) if stream else None
        self.done = False
        self.rss_mb = None

    def expect(self, word: str) -> float:
        """Wait for a control word; returns the time it arrived."""
        line = self.control.readline()
        if line is None or line.split()[0] != word:
            raise JobError(f"child ended before {word!r}: {self.stderr_tail()}")
        self.done = word == "done"
        return time.perf_counter()

    def close(self) -> int:
        """Reap the child (killing it unless it reported done); exit code."""
        if self.proc.returncode is None:
            if not self.done:
                self.proc.kill()
            if self.proc.stdin:
                try:
                    self.proc.stdin.close()
                except BrokenPipeError:
                    pass
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
            if self.proc.stdout:
                self.proc.stdout.close()
            os.close(self.read_fd)
        return self.proc.returncode

    def stderr_tail(self) -> str:
        return self.err_path.read_text(errors="replace")[-400:].strip()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, str(NPROC))
    return env


class Runner:
    """Runs jobs of one workload one at a time and checks their outputs."""

    def __init__(self, workload, workdir: Path, run_start: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = run_start + RUN_LIMIT_S
        self.env = child_env()

    def probe_setup(self) -> float:
        """Start-up time of an interpreter that imports copulafill and exits."""
        child = Child(self.env, ["--version"], self.workdir, self.deadline)
        try:
            t_ready = child.expect("ready")
            child.expect("done")
        finally:
            rc = child.close()
        if rc != 0:
            raise JobError(f"start-up probe exited {rc}: {child.stderr_tail()}")
        return t_ready - child.t_launch

    def run(self, exp, trace_path: Path | None = None) -> dict:
        if self.workload.stream:
            return self.run_stream(exp, trace_path)
        return self.run_batch(exp, trace_path)

    def run_batch(self, exp, trace_path=None) -> dict:
        """One ``copulafill impute`` job; an operation is the whole job."""
        in_path, out_path = self.workdir / "in.csv", self.workdir / "out.csv"
        files = _output_files(self.workload, out_path)
        for path in files.values():
            path.unlink(missing_ok=True)
        in_path.write_text(exp.input_text(), encoding="utf-8")
        args = ["impute", str(in_path), "-o", str(out_path), *self.workload.cli_args]
        job = {"attempted": 1, "failed": 1, "outputs": {}, "problems": []}
        child = Child(self.env, args, self.workdir, self.deadline, trace_path)
        try:
            t_ready = child.expect("ready")
            t_done = child.expect("done")
        except JobError as err:
            job["problems"].append(str(err))
            return job
        finally:
            rc = child.close()
        job.update(setup_s=t_ready - child.t_launch, job_s=t_done - t_ready,
                   rss_mb=child.rss_mb, rows=exp.cells.shape[0])
        if rc != 0:
            job["problems"].append(f"exit code {rc}: {child.stderr_tail()}")
            return job
        grids = {}
        for label, path in files.items():
            if not path.is_file():
                job["problems"].append(f"{label}: {path.name} was not written")
                continue
            job["outputs"][label] = data = path.read_bytes()
            header, *lines = data.decode().splitlines() or [""]
            job["problems"] += exp.check_header(header.split(","), label)
            grids[label] = parse_lines(lines)
        if job["problems"]:
            return job
        for label, grid in grids.items():
            if not label.startswith("ci_"):
                job["problems"] += exp.check_filled(grid, label)
        if "ci_lower" in grids:
            problems, job["coverage"] = exp.check_intervals(
                grids["ci_lower"], grids["ci_upper"])
            job["problems"] += problems
        if not job["problems"]:
            job["smae"] = exp.smae(to_float(grids["imputed"]))
            if job["smae"] >= 1:
                job["problems"].append(f"smae {job['smae']:.3f} >= 1")
        job["failed"] = int(bool(job["problems"]))
        return job

    def run_stream(self, exp, trace_path=None) -> dict:
        """One closed-loop ``copulafill stream`` session with one client.

        The warmup rows go in together; after them each row is written only
        once the previous imputed row has been read back. An operation is
        one streamed row.
        """
        in_lines = exp.input_text().splitlines()
        n_rows, n_train = len(in_lines) - 1, STREAM_N_TRAIN
        args = ["stream", "-", "-o", "-", *self.workload.cli_args]
        job = {"attempted": n_rows, "failed": n_rows, "outputs": {},
               "problems": [], "rows": n_rows - n_train, "latencies": []}
        out_lines = []
        child = Child(self.env, args, self.workdir, self.deadline, trace_path,
                      stream=True)
        try:
            t_ready = child.expect("ready")
            send, recv = child.proc.stdin, child.out
            send.write(("\n".join(in_lines[:n_train + 1]) + "\n").encode())
            send.flush()
            out_lines += [recv.readline() for _ in range(n_train + 1)]
            t_first = time.perf_counter()
            for line in in_lines[n_train + 1:]:
                t_send = time.perf_counter()
                send.write((line + "\n").encode())
                send.flush()
                reply = recv.readline()
                t_last = time.perf_counter()
                if reply is None:
                    raise JobError(f"output ended after {len(out_lines)} lines")
                out_lines.append(reply)
                job["latencies"].append(t_last - t_send)
            send.close()
            t_done = child.expect("done")
        except (JobError, BrokenPipeError) as err:
            job["problems"].append(f"stream: {err}")
            return job
        finally:
            rc = child.close()
        job["outputs"]["stream"] = "\n".join(map(str, out_lines)).encode()
        job.update(setup_s=t_ready - child.t_launch, job_s=t_done - t_ready,
                   stream_s=t_last - t_first, rss_mb=child.rss_mb)
        if rc != 0:
            job["problems"].append(f"exit code {rc}: {child.stderr_tail()}")
            return job
        job.update(check_stream(exp, out_lines, n_train))
        return job


def _output_files(workload, out_path: Path) -> dict:
    args = list(workload.cli_args)
    files = {"imputed": out_path}

    def derived(suffix):
        return out_path.with_name(out_path.stem + suffix + out_path.suffix)

    if "--ci" in args:
        files["ci_lower"], files["ci_upper"] = derived("_ci_lower"), derived("_ci_upper")
    if "--multiple" in args:
        for k in range(int(args[args.index("--multiple") + 1])):
            files[f"draw{k + 1}"] = derived(f"_imp{k + 1}")
    return files


def check_stream(exp, out_lines, n_train) -> dict:
    """Checks of one stream session's output lines.

    A row fails on a wrong ``warmup`` marker, a changed warmup echo or a
    failed imputed-row check; a wrong header, a missing row or smae >= 1
    fails every row.
    """
    n_rows, p = exp.cells.shape
    everything = {"failed": n_rows}
    if None in out_lines or out_lines[0].split(",") != exp.data.names + ["warmup"]:
        return {**everything, "problems": ["stream: header or rows missing"]}
    grid = parse_lines(out_lines[1:])
    if grid.shape != (n_rows, p + 1):
        return {**everything, "problems": [
            f"stream: output shape {grid.shape}, expected {(n_rows, p + 1)}"]}
    expected = np.array(["1"] * n_train + ["0"] * (n_rows - n_train), dtype=object)
    bad = grid[:, p] != expected
    bad[:n_train] |= (grid[:n_train, :p] != exp.cells[:n_train]).any(axis=1)
    problems = []
    for i in range(n_train, n_rows):
        row = exp.check_filled(grid[i:i + 1, :p], f"row {i + 1}", rows=slice(i, i + 1))
        if row:
            problems += row
            bad[i] = True
    if bad.any():
        problems.insert(0, f"stream: {int(bad.sum())} rows failed "
                           f"(first: row {int(np.flatnonzero(bad)[0]) + 1})")
        return {"failed": int(bad.sum()), "problems": problems}
    rows = slice(n_train, n_rows)
    score = exp.smae(to_float(grid[rows, :p]), rows)
    if score >= 1:
        return {**everything, "problems": [f"stream: smae {score:.3f} >= 1"]}
    return {"failed": 0, "problems": [], "smae": score}
