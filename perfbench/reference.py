"""Fixed reference work that measures how fast the host runs Python now.

Usage: python -S -E perfbench/reference.py

The benchmark runs this in a fresh interpreter between its timed extreal
executions and scales their wall times by this one's (see "Timing
estimator" in README.md).  The work is what extreal spends its time on,
building tuples and looking them up in a dict, over a working set of about
the size of extreal's own heap, and it never changes with the program under
test: the ratio moves when extreal gets faster or slower and not when the
shared host does.
"""

N = 80_000


def main() -> int:
    table = {}
    for i in range(N):
        table[(i, i * 7 % 1009)] = (i, str(i))
    x = total = 0
    for i in range(N):
        x = (x * 31 + i) % N
        total += table[(x, x * 7 % 1009)][0]
    return total


if __name__ == "__main__":
    assert main() == 3_210_560_000
