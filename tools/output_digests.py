"""SHA-256 digests of the CLI's outputs on every shipped config.

Runs ``riccati``, ``synthesize --check-ipc``, ``game`` and ``verify --suite
all`` with ``--seed 1`` on each config of ``configs/`` (32 runs, x0 = 0.5
or (0.5, 0)), in one process, and prints one line per run (its exit code
and the digest of its stdout and stderr) and one per output file.

``manifest.json`` records the config path and the output directory, and
every other file embeds the manifest's hash, so the configs are copied to,
and the outputs written under, one fixed work directory: two checkouts then
give the same digests for the same outputs.  Compare a checkout with its
parent commit:

    git archive --prefix=parent/ HEAD~1 | tar -x -C ..
    python tools/output_digests.py --repo ../parent > parent.txt
    python tools/output_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "riccati": ["riccati"],
    "synthesize": ["synthesize", "--x0", "{x0}", "--check-ipc"],
    "game": ["game", "--x0", "{x0}"],
    "verify": ["verify", "--suite", "all"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ are run "
                             "(default: this one)")
    parser.add_argument("--work", type=Path,
                        default=Path(tempfile.gettempdir())
                        / "safelq-output-digests",
                        help="fixed directory for configs and outputs; "
                             "emptied first")
    args = parser.parse_args(argv)
    repo, work = args.repo.resolve(), args.work.resolve()

    sys.path.insert(0, str(repo / "src"))
    cli = importlib.import_module("safelq.cli")

    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    for src in sorted((repo / "configs").glob("*.json")):
        config = work / "configs" / src.name
        shutil.copyfile(src, config)
        dim = json.loads(src.read_text())["dims"]["state"]
        x0 = ",".join(["0.5"] + ["0"] * (dim - 1))
        for name, template in COMMANDS.items():
            out = work / "out" / src.stem / name
            argv_run = (["--config", str(config), "--out", str(out),
                         "--seed", "1"]
                        + [arg.format(x0=x0) for arg in template])
            stream = io.StringIO()
            with contextlib.redirect_stdout(stream), \
                    contextlib.redirect_stderr(stream):
                code = cli.main(argv_run)
            label = f"{src.stem}/{name}"
            print(f"exit={code} streams={_sha(stream.getvalue().encode())}  "
                  f"{label}")
            for path in sorted(out.rglob("*")) if out.exists() else ():
                if path.is_file():
                    print(f"{_sha(path.read_bytes())}  "
                          f"{label}/{path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
