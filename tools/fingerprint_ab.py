"""Show which lines of tools/fingerprint.py's output moved between a git revision and the working tree.

    python3 tools/fingerprint_ab.py REV

It extracts REV with ``git archive`` into a temporary directory, copies the
working tree's ``tools/fingerprint.py`` over that tree's, and runs the one
tool against each tree's library, each in its own process, both at once.
So lines that the tool gained since REV are compared like with like, and
the tool may call only names that REV's library has.  It prints every line
that moved, as difflib matches the two outputs, REV's with ``-`` and the
working tree's with ``+``, and then ``N of M lines moved``, the moved
lines per tag (each block of moved lines counts, for each tag, the larger
of its ``-`` and ``+`` lines), and how many outputs went from a refusal
(an exception class name) to an answer and back, each output keyed by its
tag, its input number and its place among that input's lines.  Last comes
``beyond the margin: N``: N counts the moved ``certify`` and ``scan``
outputs that still differ once their ``min_margin`` values are masked (a
``certify`` line's ``min_margin=`` field and the 4th element of each
``scan`` row), so that a move in margin digits alone reads 0.  Moved lines
are for a change's notes to justify, so the exit status is non-zero only
when ``git archive`` or a run fails; a run's stderr is passed through.
Both runs inherit the environment, ``PYTHONWARNINGS`` included.  Standard
library only.
"""

from __future__ import annotations

import difflib
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_ab import ROOT, extract  # this script's directory is on sys.path

REFUSAL = re.compile(r"[A-Z][A-Za-z]*")  # fingerprint.py prints a refusal as its class name
MARGIN = re.compile(r"min_margin=\S+")  # a certify line's field
ROW = re.compile(r"\[([^][]*)\]")  # a scan row: L eta slack min_margin certified zero_in_disk


def outputs_by_key(lines: list[str]) -> dict[tuple[str, str, int], str]:
    """Each line's output, keyed by (tag, input number, place among that input's lines)."""
    seen, keyed = Counter(), {}
    for line in lines:
        tag, i, out = line.split(" ", 2)
        seen[tag, i] += 1
        keyed[tag, i, seen[tag, i]] = out
    return keyed


def masked(tag: str, out: str) -> str:
    """A certify or scan output with its min_margin values replaced by ``*``."""
    if tag == "certify":
        return MARGIN.sub("min_margin=*", out)
    return ROW.sub(lambda row: "[" + " ".join(
        "*" if k == 3 else v for k, v in enumerate(row[1].split(" "))) + "]", out)


def is_refusal(out: str) -> bool:
    return REFUSAL.fullmatch(out) is not None and out not in ("True", "False", "None")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as base:
        extract(argv[0], Path(base))  # exits 1 with a message when git archive fails
        shutil.copyfile(ROOT / "tools" / "fingerprint.py", Path(base) / "tools" / "fingerprint.py")
        runs = [subprocess.Popen([sys.executable, str(Path(tree) / "tools" / "fingerprint.py")],
                                 stdout=subprocess.PIPE, text=True)
                for tree in (base, ROOT)]
        outputs = [run.communicate()[0] for run in runs]
    for name, run in zip((argv[0], "the working tree"), runs):
        if run.returncode:
            print(f"fingerprint.py of {name} exited {run.returncode}", file=sys.stderr)
            return 1
    before, after = (output.splitlines() for output in outputs)
    moved, tags = 0, Counter()
    matcher = difflib.SequenceMatcher(None, before, after, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op != "equal":
            moved += max(i2 - i1, j2 - j1)
            for line in before[i1:i2]:
                print("-", line)
            for line in after[j1:j2]:
                print("+", line)
            removed, added = (Counter(line.split(" ", 1)[0] for line in block)
                              for block in (before[i1:i2], after[j1:j2]))
            tags.update({tag: max(removed[tag], added[tag]) for tag in removed | added})
    print(f"{moved} of {max(len(before), len(after))} lines moved")
    print("moved per tag:", ", ".join(f"{tag} {n}" for tag, n in sorted(tags.items())) or "none")
    old, new = outputs_by_key(before), outputs_by_key(after)
    paired = [(is_refusal(old[key]), is_refusal(new[key])) for key in old.keys() & new.keys()]
    print(f"refusal to answer: {paired.count((True, False))}, "
          f"answer to refusal: {paired.count((False, True))}")
    beyond = sum(masked(key[0], old[key]) != masked(key[0], new[key])
                 for key in old.keys() & new.keys()
                 if key[0] in ("certify", "scan") and old[key] != new[key])
    print(f"beyond the margin: {beyond}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
