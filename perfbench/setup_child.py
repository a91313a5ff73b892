"""Time the two load calls `wawk run` makes before any script runs.

    python3 perfbench/setup_child.py SCRIPT VCD

SCRIPT is `@name` or a script path, as for `wawk run`. Prints one JSON
object: the seconds of parse_source followed by parse_vcd_file, corrected
for the host's speed by hostclock (setup_s) and as wall time
(setup_wall_s), and the index count of the loaded trace. run.py starts a
fresh process for every sample, so each one pays what a user pays on a
cold start.
"""

import json
import sys
import time

import hostclock

from wawk.cli import bundled_script
from wawk.parser import parse_source
from wawk.vcd import parse_vcd_file


def main(script: str, vcd: str) -> None:
    if script.startswith("@"):
        source = bundled_script(script[1:])
    else:
        with open(script, encoding="utf-8") as f:
            source = f.read()
    with hostclock.Sampler() as sampler:
        started = time.perf_counter()
        parse_source(source)
        waveform = parse_vcd_file(vcd)
        ended = time.perf_counter()
    setup_s, wall = hostclock.scaled(sampler.samples, started, ended)
    print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall,
                      "index_count": waveform.index_count}))


if __name__ == "__main__":
    main(*sys.argv[1:])
