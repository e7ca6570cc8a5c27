"""Set-up and memory probe, run in a fresh interpreter by ``run.py``.

Times ``import pairmem`` plus parsing the workload's scenario (the set-up a
user pays on every command).  With ``--op``, it then runs one op of the
workload and reports the growth of peak resident memory over the resident
size just before the op, in MiB, together with the op's check result.

Prints one JSON object on stdout.
"""

import argparse
import json
import os
import sys
import time


def _memory_mib(field) -> float:
    """VmRSS or VmHWM of this process, in MiB.  VmHWM belongs to the
    address space made at exec, so unlike ``ru_maxrss`` it does not start
    at the parent's peak."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{field} missing from /proc/self/status")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--op", help="JSON: [workload, root, work, seed, quick, out]")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    import pairmem
    with open(args.scenario) as f:
        pairmem.load_scenario(f.read())
    result = {"setup_s": time.perf_counter() - t0, "module": pairmem.__file__}

    if args.op:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from workloads import WORKLOADS
        name, root, work, seed, quick, out = json.loads(args.op)
        wl = WORKLOADS[name](root, work, seed, quick)
        wl.prepare()
        before = _memory_mib("VmRSS")
        rc, _, captured = wl.run(out)
        peak = _memory_mib("VmHWM")
        problem, counts, sha = (f"exit code {rc}", {}, None) if rc else \
            wl.check(out, captured)
        result.update(peak_mem_mb=peak - before, problem=problem,
                      counts=counts, report_sha256=sha)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
