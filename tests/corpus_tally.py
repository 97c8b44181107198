"""Exit-code tally of every command on a fixed corpus of scenario texts.

Run from the repository root as

    PYTHONPATH=src python tests/corpus_tally.py

The corpus is 450 texts from ``helpers.scenario_texts``: 150 drawn under
hypothesis seed 7 and 300 under seed 8, with no example database. Each text
runs through ``solve``, ``expand``, ``baselines``, ``simulate`` and
``compare`` (the last two with ``--horizon 50 --warmup 5``) by click's
``CliRunner``. The script prints, per command, the count of each exit code
and of each exception type that escaped the command, then one SHA-256 over
the corpus texts and one per command over the exit code, stdout and stderr
of each of the command's 450 runs, all in corpus order. A change that
touches the numerics reports this tally and these digests before and
after; equal digests mean byte-identical output on the whole corpus. The
texts drawn depend on how the script is launched (run as a file and through
``runpy.run_path`` it draws different ones), so the command digests of two
runs compare only when their corpus digests are equal.
"""

import hashlib
import tempfile
from collections import Counter
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, seed, settings

from deadlinenet import cli
from helpers import scenario_texts

CORPUS = ((7, 150), (8, 300))
SHORT = ["--horizon", "50", "--warmup", "5"]
COMMANDS = {"solve": [], "expand": [], "baselines": [],
            "simulate": SHORT, "compare": SHORT}


def tally() -> tuple[list, dict, dict]:
    """Run every command on every text of the corpus: (the texts, {command:
    Counter of exit codes and of the names of escaped exceptions}, {command:
    SHA-256 of its runs' exit codes, stdout and stderr})."""
    runner = CliRunner()
    counts = {command: Counter() for command in COMMANDS}
    digests = {command: hashlib.sha256() for command in COMMANDS}
    texts = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "net.cfg"

        def run(text):
            texts.append(text)
            path.write_text(text)
            for command, extra in COMMANDS.items():
                result = runner.invoke(cli.main, [
                    command, *extra, "--config", str(path), "--format", "json"])
                # each part prefixed by its length, so that no two runs'
                # outputs hash alike by moving bytes from one part to the next
                for part in (str(result.exit_code).encode(),
                             result.stdout_bytes, result.stderr_bytes):
                    digests[command].update(len(part).to_bytes(8, "big"))
                    digests[command].update(part)
                escaped = result.exception
                if escaped is None or isinstance(escaped, SystemExit):
                    counts[command][result.exit_code] += 1
                else:
                    counts[command][type(escaped).__name__] += 1

        for corpus_seed, examples in CORPUS:
            draw = settings(max_examples=examples, database=None,
                            deadline=None)(given(scenario_texts())(run))
            seed(corpus_seed)(draw)()
    return texts, counts, {command: digest.hexdigest()
                           for command, digest in digests.items()}


def main() -> None:
    texts, counts, digests = tally()
    print(f"{len(texts)} texts ({len(set(texts))} distinct)")
    for command, counter in counts.items():
        codes = sorted(k for k in counter if isinstance(k, int))
        escaped = sorted(k for k in counter if isinstance(k, str))
        parts = [f"exit {code}: {counter[code]}" for code in codes]
        parts += [f"{name}: {counter[name]}" for name in escaped]
        print(f"{command}: " + ", ".join(parts))
    if not any(isinstance(k, str) for c in counts.values() for k in c):
        print("no exception escaped")
    corpus = hashlib.sha256()
    for text in map(str.encode, texts):
        corpus.update(len(text).to_bytes(8, "big") + text)
    print(f"sha256 corpus: {corpus.hexdigest()}")
    for command, digest in digests.items():
        print(f"sha256 {command}: {digest}")


if __name__ == "__main__":
    main()
