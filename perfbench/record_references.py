"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_references.py

Runs each workload's commands as plain `python3 -m tifem.cli ...` processes,
the same as the `tifem` console command, for every fibre angle a seed can
draw (the default seed shares the file of the commands' own angle).  It refuses to record an output with a failed
row or a non-finite cell, and writes the CSVs under perfbench/reference/
with perfbench/reference/manifest.json holding their SHA-256 and row counts.
Re-record only when a change to the program's output is intended.
"""

import hashlib
import json
import lzma
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from compare import check_output
from run import REFERENCE, ROOT, pinned_env
from workloads import WORKLOADS, join_csv


def plain_output(commands):
    """Joined CSV of the commands run as separate `tifem` processes."""
    texts = []
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "out") as tmp:
        for i, argv in enumerate(commands):
            out = Path(tmp) / f"command{i}.csv"
            subprocess.run(
                [sys.executable, "-m", "tifem.cli", *argv, "--out", str(out)],
                env=pinned_env(), cwd=ROOT, check=True,
            )
            texts.append(out.read_bytes())
    return join_csv(texts).decode("utf-8")


def record(workload, seed):
    name = workload.reference_name(seed)
    commands = workload.commands_for(seed)
    text = plain_output(commands)
    problems, _, rows, _ = check_output(text, text)
    if problems:
        raise SystemExit(f"{name}: {problems}")
    path = REFERENCE / name
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("utf-8")
    path.write_bytes(lzma.compress(data, preset=9) if path.suffix == ".xz" else data)
    print(f"recorded {name}: {rows} rows", flush=True)
    return name, {"sha256": hashlib.sha256(data).hexdigest(), "rows": rows,
                  "commands": commands}


def main():
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    jobs = [(w, s) for w in WORKLOADS.values() for s in w.reference_seeds()]
    with ThreadPoolExecutor(max_workers=2) as pool:
        entries = dict(pool.map(lambda job: record(*job), jobs))
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    (REFERENCE / "manifest.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
