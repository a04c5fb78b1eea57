"""Compare two result records written by ``run.py --out``.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric's change and flags every probe ratio that moved by
more than its error estimate (the error estimate divided by the bound's
right-hand side, taken from BEFORE): such a move is a change of
behaviour, not of speed.  The comparison reports; it never fails.
"""

from __future__ import annotations

import json
import sys


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(before: dict, after: dict) -> list[str]:
    lines = [f"workload {before['workload']} -> {after['workload']}"]
    for side, rec in (("before", before), ("after", after)):
        m = rec["machine"]
        lines.append(f"  {side}: commit={m['commit']} src={m['src_sha256'][:12]} python={m['python']} "
                     f"numpy={m['numpy']} nproc={m['nproc']} numba={m['use_numba']}")
    b_metrics, a_metrics = before["result"]["metrics"], after["result"]["metrics"]
    for name in list(b_metrics) + [n for n in a_metrics if n not in b_metrics]:
        b, a = b_metrics.get(name), a_metrics.get(name)
        if b is None or a is None:
            lines.append(f"  {name}: only {'after' if b is None else 'before'}")
            continue
        change = f"{(a['value'] - b['value']) / b['value']:+.1%}" if b["value"] else "n/a"
        lines.append(f"  {name}: {b['value']:.6g} -> {a['value']:.6g} {a['unit']} ({change})")
    lines.append(f"  fail_frac: {before['fail_frac']:.6g} -> {after['fail_frac']:.6g}")

    moved = 0
    for key in sorted(set(before["probes"]) | set(after["probes"])):
        b, a = before["probes"].get(key), after["probes"].get(key)
        if b is None or a is None:
            lines.append(f"  probe {key}: only {'after' if b is None else 'before'}")
            continue
        delta = a["ratio"] - b["ratio"]
        tol = b["error_estimate"] / b["rhs"]
        flag = abs(delta) > tol
        moved += flag
        note = "  MOVED" if flag else ""
        if a["status"] != b["status"]:
            note += f"  status {b['status']} -> {a['status']}"
        lines.append(f"  probe {key}: ratio {b['ratio']:.10f} -> {a['ratio']:.10f} "
                     f"(delta {delta:+.2e}, error {tol:.2e}){note}")
    lines.append(f"  probes moved beyond their error estimate: {moved}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    print("\n".join(compare(_load(argv[0]), _load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
