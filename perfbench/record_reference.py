"""Record the reference outputs that optimizer ops are checked against.

Run from the repository root:

    python3 perfbench/record_reference.py

For every seed slot it runs each optimizer call of every workload once and
stores [final_J, rollout_steps], or null for a call that carries its own
verdict. It also runs those gradient-check and Z-learning calls, so the
whole seed range is known to pass. It lists any call that fails its check
and then exits with code 1 without writing reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _dump(ref: dict, fh):
    """JSON with one line per slot, so a re-recording diffs by slot."""
    parts = [f'"slots": {ref["slots"]}']
    for workload, table in ref.items():
        if workload != "slots":
            rows = ",\n".join(f'  "{slot}": {json.dumps(v)}' for slot, v in table.items())
            parts.append(f'"{workload}": {{\n{rows}\n}}')
    fh.write("{\n" + ",\n".join(parts) + "\n}\n")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    # the same BLAS pinning as run.py, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from chainopt import harness

    ref = {"slots": workloads.SLOTS}
    bad = []
    for workload in workloads.WORKLOADS:
        table = {}
        for slot in range(workloads.SLOTS):
            entries = []
            for call in workloads.calls_for(workload, slot):
                cfg = harness.parse_config(call.config_text())
                if call.entry == "optimize":
                    entries.append(workloads.reference_entry(harness.run_optimize(cfg)))
                    continue
                entries.append(None)
                run = harness.run_gradcheck if call.entry == "gradcheck" else harness.run_zlearn
                if not workloads.check_output(call, run(cfg), None):
                    bad.append((workload, slot, call.label))
            table[str(slot)] = entries
            print(f"{workload} slot {slot} done", flush=True)
        ref[workload] = table
    for item in bad:
        print("FAILED", *item)
    print(f"{len(bad)} failing calls")
    if bad:
        print("reference.json left unchanged")
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        _dump(ref, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
