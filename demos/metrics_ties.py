"""How tie-aware expected rank differs from naive best/worst-case ranks.

Builds a small ranking with a tie-group containing the faulty element and
shows the exact expected inspection position, the EXAM score, and how the
closed form agrees with brute-force enumeration over tie orderings.

    python3 demos/metrics_ties.py
"""

import itertools
from fractions import Fraction

from flkit.metrics import expected_first_faulty_rank
from flkit.model import ProgramElement, rank_elements


def main():
    # five statements; the faulty one is tied with two others at the top score
    elems = [ProgramElement("demo.ml", i) for i in range(1, 6)]
    scores = {elems[0]: 0.9, elems[1]: 0.9, elems[2]: 0.9, elems[3]: 0.4, elems[4]: 0.1}
    faulty = {elems[1]}
    ranking = rank_elements(scores)
    print("tie-groups:",
          [sorted(e.line for e in g) for g in ranking.groups])

    value = expected_first_faulty_rank(ranking, faulty)
    print(f"expected first-faulty rank: {value} "
          f"(best case 1, worst case {len(ranking.groups[0])})")
    print(f"EXAM over {len(elems)} statements: {value / len(elems)}")

    # brute force: average the faulty position over all orderings of the group
    group = sorted(ranking.groups[0], key=lambda e: e.line)
    total = Fraction(0)
    perms = list(itertools.permutations(group))
    for perm in perms:
        total += perm.index(elems[1]) + 1
    print(f"enumeration over {len(perms)} tie orderings gives: {total / len(perms)}")


if __name__ == "__main__":
    main()
