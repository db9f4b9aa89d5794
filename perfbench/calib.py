"""Fixed, stdlib-only calibration child: a constant amount of interpreter work.

Its wall time measures how fast the host runs Python right now.  The
benchmark divides pass times by it, which removes most of the host's speed
drift between runs.  The work mixes what vkpatch spends its time on: small
int arithmetic, tuple building, dict and set lookups and function calls.
"""


def _perm_mul(a: tuple, b: tuple) -> tuple:
    return tuple(a[i] for i in b)


def work(rounds: int = 2) -> int:
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0)]
    seen = {perms[0]: 0}
    acc = 0
    for r in range(rounds):
        frontier = list(perms)
        for _ in range(2000):
            nxt = []
            for x in frontier[:4]:
                for g in perms:
                    y = _perm_mul(g, x)
                    acc = (acc * 31 + seen.setdefault(y, len(seen)) + r) % 1_000_003
                    nxt.append(y)
            frontier = nxt
    return acc


if __name__ == "__main__":
    work()
