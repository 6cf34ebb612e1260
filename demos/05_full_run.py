"""End-to-end certification loop with a JSON report.

`run` doubles the discretization level, 1, 2, 4, ..., up to its cap,
solves each level with the backend the game picks (lp here, as the game
is zero-sum), lifts and certifies, and stops at the first level of that
sequence whose certificate holds.  The report captures every attempted
level, the winning strategies in atomic form, and sup-distance
diagnostics between consecutive levels.
"""

import json
import os

import bnecert as bc

HERE = os.path.dirname(__file__)


def main():
    g = bc.load_game_file(os.path.join(HERE, "specs", "zero_sum_match.json"))
    cfg = bc.RunConfig(epsilon=0.05, max_level=32)
    report = bc.run(g, cfg)

    print(f"status: {report.status} at level {report.certified_level}")
    for record in report.levels:
        cert = record["certificate"]
        print(f"  n={record['n']:2d}  backend={record['backend']}  "
              f"worst gap={max(cert['gap1'], cert['gap2']):+.3e}  "
              f"certified={cert['certified']}")

    print("\nsup-distance between consecutive solved levels:")
    for entry in report.diagnostics:
        print(f"  {entry['level_a']:2d} -> {entry['level_b']:2d}: "
              f"{entry['sup_distance1']:.4f} / {entry['sup_distance2']:.4f}")

    out = os.path.join(os.getcwd(), "report.json")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    print(f"\nfull report written to {out}")
    doc = json.loads(report.to_json())
    atoms = doc["strategies"]["player1"]["atoms"]
    print(f"player 1 strategy has {len(atoms)} atoms at level "
          f"{doc['strategies']['player1']['level']}")


if __name__ == "__main__":
    main()
