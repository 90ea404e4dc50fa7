"""Record the golden corpus that every benchmark op is checked against.

    python3 perfbench/golden.py

For each CLI entry of the catalogue it stores the exit code and the sha256
of stdout and of stderr of a fresh ``tangentia`` process; for each scale
call, its fingerprint.  It refuses to write when a recorded answer breaks a
frozen fact, so a wrong program cannot become the reference.  CLI bytes
are a fixed contract, so rerun this only when a change means to alter
them, and say so.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, PY, ROOT, SRC, child_env, sha

import catalogue

sys.path.insert(0, str(SRC))
import scalecalls  # noqa: E402  (needs src on the path)

# (n, r) -> |G(n, r)|, and the first six instanton numbers m_3[1..6]
TYPE_COUNTS = {(4, 6): 4245, (5, 6): 2700, (3, 6): 1865}
M3_FIRST_SIX = ["1", "1", "1", "2", "5", "13"]


def fail(message: str) -> None:
    sys.exit(f"golden.py: {message}")


def cli_golden() -> dict:
    golden = {}
    for entry in (*catalogue.CLI_GOOD, *catalogue.CLI_BAD, catalogue.BATTERY):
        argv, extra = catalogue.split_entry(entry)
        proc = subprocess.run([PY, "-m", "tangentia.cli", *argv], capture_output=True,
                              env=child_env(extra), cwd=ROOT)
        want_exit = 1 if entry in catalogue.CLI_BAD else 0
        if proc.returncode != want_exit:
            fail(f"{entry!r} exited {proc.returncode}, expected {want_exit}")
        if want_exit and not proc.stderr:
            fail(f"{entry!r} printed no error message")
        if entry == catalogue.BATTERY:
            report = json.loads(proc.stdout)
            if not report["all_passed"] or len(report["checks"]) != 10:
                fail(f"{entry!r} did not pass ten checks")
        golden[entry] = {"exit": proc.returncode, "stdout": sha(proc.stdout), "stderr": sha(proc.stderr)}
    return golden


def scale_golden() -> dict:
    golden = {}
    for call in catalogue.every_scale_call():
        fp = scalecalls.fingerprint(call, scalecalls.run(call))
        kind, *args = call
        if kind == "types" and fp["n"] != TYPE_COUNTS[tuple(args)]:
            fail(f"|G{tuple(args)}| = {fp['n']}")
        if kind == "instantons" and args[0] == 3 and fp["m3_1_6"] != M3_FIRST_SIX:
            fail(f"m_3[1..6] = {fp['m3_1_6']}")
        if kind == "integrality" and not fp["all_pass"]:
            fail("integrality box has failing rows")
        if kind == "weights" and not fp["top_is_sum"]:
            fail("a top weight is not the sum of the weights")
        if kind == "solve" and fp["n"] != args[2] ** 2:
            fail(f"{call}: {fp['n']} solutions")
        golden[catalogue.call_key(call)] = fp
    return golden


def main() -> None:
    golden = {"cli": cli_golden(), "scale": scale_golden()}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['cli'])} CLI entries and {len(golden['scale'])} scale calls")


if __name__ == "__main__":
    main()
