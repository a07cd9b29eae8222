"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py SEED

run.py starts this a few times per untraced run, so that set-up time is a
median over fresh processes rather than one sample.
"""

import sys

import harness


def main() -> None:
    seed = int(sys.argv[1])
    harness.prepare()
    with harness.scratch_dir() as out_dir:
        seconds, _ = harness.set_up(seed, out_dir)
    print(repr(seconds))


if __name__ == "__main__":
    main()
