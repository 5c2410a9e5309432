"""Write bench/reference.json: exit code and stdout sha256 of every
workload command (every spot prime of each window included), and the result
digest of every spot-table kernel.

    python3 bench/record_reference.py

Record only from a commit whose records are trusted; the benchmark then
counts any later difference as an error.
"""

import json

import harness


def record(lib, workloads, cases) -> dict:
    commands = {}
    for w in workloads:
        for cmd in w.all_commands():
            code, out = harness.run_command(lib.cli, cmd.with_jobs(w.jobs))
            commands[cmd.key] = {"exit": code, "sha256": harness.sha256(out)}
    kernels = {name: harness.kernel_digest(fn(arg)) for name, fn, arg in cases}
    return {"commands": commands, "kernels": kernels}


if __name__ == "__main__":
    lib = harness.load_library()
    reference = record(lib, harness.WORKLOADS.values(), harness.spot_cases(lib))
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
