#!/usr/bin/env python3
"""Regenerate the scenario goldens in tests/golden/data from `jpm run`.

Usage: tests/golden/regen.py [path/to/jpm]      (default: build/src/jpm)

Runs every scenarios/*.json file through `jpm run --telemetry` in fast mode
(JPM_BENCH_FAST=1) at JPM_THREADS=4 and writes, per scenario <name>:

  <name>.stdout    the result tables `jpm run` prints on stdout
  <name>.progress  the progress lines it prints on stderr (two-space indent)
  <name>.digests   FNV-1a 64 hashes of the telemetry report and periods CSV

or, for a file `jpm run` rejects with a spec error,

  <name>.error     the error line `jpm run` prints on stderr

A run that fails any other way (a crash, an internal check) is reported and
left unpinned. Prints every golden file it adds, changes or removes, so a
golden update lists what moved; a golden change belongs in its own commit,
with the reason in CHANGES.md.
"""
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "golden" / "data"

# Cluster sweeps record their servers' events in execution order, which
# depends on the schedule at JPM_THREADS > 1, so these reports are not pinned.
SCHEDULE_DEPENDENT_REPORTS = {"ext_cluster", "fleet_sweep"}


def fnv1a64(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def run(jpm: str, scenario: pathlib.Path, tmp: str) -> dict:
    """Returns the golden files (name suffix -> bytes) for one scenario."""
    env = dict(os.environ, JPM_BENCH_FAST="1", JPM_THREADS="4")
    env.pop("JPM_SCHED", None)
    base = os.path.join(tmp, scenario.stem)
    proc = subprocess.run([jpm, "run", str(scenario), f"--telemetry={base}"],
                          capture_output=True, env=env)
    stderr = proc.stderr.decode()
    if proc.returncode != 0:
        if "JPM_CHECK failed" in stderr or not stderr.startswith("error: "):
            raise RuntimeError(stderr.strip() or f"exit {proc.returncode}")
        return {".error": proc.stderr}
    progress = "".join(line + "\n" for line in stderr.splitlines()
                       if line.startswith("  "))
    report = pathlib.Path(base + ".report.json").read_bytes()
    periods = pathlib.Path(base + ".periods.csv").read_bytes()
    report_digest = ("skipped" if scenario.stem in SCHEDULE_DEPENDENT_REPORTS
                     else fnv1a64(report))
    digests = f"report {report_digest}\nperiods {fnv1a64(periods)}\n"
    return {".stdout": proc.stdout, ".progress": progress.encode(),
            ".digests": digests.encode()}


def main() -> int:
    jpm = sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "build/src/jpm")
    DATA.mkdir(parents=True, exist_ok=True)
    moved = 0
    unpinned = 0
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted((ROOT / "scenarios").glob("*.json")):
            try:
                files = run(jpm, scenario, tmp)
            except RuntimeError as e:
                print(f"unpinned {scenario.stem}: {e}")
                unpinned += 1
                continue
            for old in DATA.glob(scenario.stem + ".*"):
                if old.suffix not in files:
                    old.unlink()
                    print(f"removed {old.relative_to(ROOT)}")
                    moved += 1
            for suffix, content in files.items():
                path = DATA / (scenario.stem + suffix)
                if path.exists() and path.read_bytes() == content:
                    continue
                print(f"{'changed' if path.exists() else 'added'} "
                      f"{path.relative_to(ROOT)}")
                path.write_bytes(content)
                moved += 1
    print(f"{moved} golden file(s) moved, {unpinned} scenario(s) unpinned")
    return 1 if unpinned else 0


if __name__ == "__main__":
    sys.exit(main())
