"""A fixed pure-Python task that measures how fast the host runs Python right now.

bench.py runs it in a fresh interpreter before and after every timed
command and divides the command's time by its time. On a shared host the
speed of a core drifts by up to 2x over minutes; the drift slows this task
and the netupdate CLI alike, so the ratio stays put while raw times do not.
The task uses no netupdate code, so a change to the program cannot move it.
Its work mirrors the simulator's: tuple-keyed dict lookups, small objects,
sorting and string formatting.
"""


class Rec:
    __slots__ = ("name", "value", "round")

    def __init__(self, name, value, rnd):
        self.name, self.value, self.round = name, value, rnd


def main() -> int:
    table = {(f"s{i % 97}", i % 3, i): (i * 7919) % 10007 for i in range(30000)}
    keys = list(table)
    total = 0
    for rnd in range(4):
        recs = []
        for key in keys:
            value = table.get(key)
            if value is not None and value & 1:
                recs.append(Rec(key[0], value, rnd))
        recs.sort(key=lambda r: (r.value, r.name))
        total += sum(r.value for r in recs[::97])
        total += len(",".join(str(r.value) for r in recs[:2000]))
    return total


if __name__ == "__main__":
    print(main())
