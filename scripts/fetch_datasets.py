#!/usr/bin/env python3
"""Download the five SNAP benchmark streams into data/.

Usage:
    python3 scripts/fetch_datasets.py [name ...]     # default: all five

Files land uncompressed under data/ with the names the benchmark tests
expect.  A sha256 for every installed file is recorded in
data/checksums.txt on first download and verified on later runs, so a
silently changed upstream file fails loudly; delete the matching line to
accept a new version on purpose.

The streams, and how to feed them to llabench (keys are taken in
timestamp order in every case):

    loc-gowalla_totalCheckins.txt   user, ISO time, latitude, longitude, place
        latitude stream:    --value-col 2 --ts-col 1
        place-id stream:    --value-col 4 --ts-col 1
    mooc_actions.tsv                action, user, target, seconds (header
        user stream:        --value-col 1 --ts-col 3       stripped here)
    sx-askubuntu-a2q.txt            asker, answerer, unix time
        answerer stream:    --value-col 1 --ts-col 2
    email-Eu-core-temporal.txt      sender, recipient, seconds
        recipient stream:   --value-col 1 --ts-col 2

The table-reproduction tests use the first 2^18 rows of each ordered
stream (2^17 train + 2^17 test), falling back to the largest power of
two that fits for the shorter files.
"""

import gzip
import hashlib
import shutil
import sys
import tarfile
import tempfile
import urllib.request
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"
CHECKSUMS = DATA / "checksums.txt"
BASE = "https://snap.stanford.edu/data/"

# name -> (archive, installed file)
SOURCES = {
    "gowalla": ("loc-gowalla_totalCheckins.txt.gz", "loc-gowalla_totalCheckins.txt"),
    "mooc": ("act-mooc.tar.gz", "mooc_actions.tsv"),
    "askubuntu": ("sx-askubuntu-a2q.txt.gz", "sx-askubuntu-a2q.txt"),
    "email": ("email-Eu-core-temporal.txt.gz", "email-Eu-core-temporal.txt"),
}


def sha256_of(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_pins():
    pins = {}
    if CHECKSUMS.exists():
        for line in CHECKSUMS.read_text(encoding="utf-8").splitlines():
            if line.strip():
                digest, name = line.split(None, 1)
                pins[name.strip()] = digest
    return pins


def save_pins(pins):
    lines = [f"{digest}  {name}" for name, digest in sorted(pins.items())]
    CHECKSUMS.write_text("\n".join(lines) + "\n", encoding="utf-8")


def install(name, workdir):
    archive, target = SOURCES[name]
    url = BASE + archive
    tmp = workdir / archive
    print(f"fetching {url}")
    urllib.request.urlretrieve(url, tmp)

    out = DATA / target
    if archive.endswith(".tar.gz"):
        with tarfile.open(tmp) as tar:
            member = next(
                m for m in tar.getmembers() if m.name.endswith(target)
            )
            with tar.extractfile(member) as src, open(out, "wb") as dst:
                first = src.readline()
                if first.split(b"\t")[0].strip().isdigit():
                    dst.write(first)  # no header after all; keep the row
                shutil.copyfileobj(src, dst)
    else:
        with gzip.open(tmp, "rb") as src, open(out, "wb") as dst:
            shutil.copyfileobj(src, dst)
    return out


def main(argv):
    names = argv or list(SOURCES)
    unknown = [n for n in names if n not in SOURCES]
    if unknown:
        print(f"unknown dataset(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choices: {', '.join(SOURCES)}", file=sys.stderr)
        return 2

    DATA.mkdir(parents=True, exist_ok=True)
    pins = load_pins()
    with tempfile.TemporaryDirectory() as td:
        for name in names:
            target = SOURCES[name][1]
            out = DATA / target
            if out.exists() and pins.get(target) == sha256_of(out):
                print(f"{target}: present and verified")
                continue
            out_path = install(name, Path(td))
            digest = sha256_of(out_path)
            if target in pins and pins[target] != digest:
                print(
                    f"{target}: sha256 mismatch!\n  pinned {pins[target]}\n"
                    f"  got    {digest}\n"
                    "delete its line in data/checksums.txt to re-pin.",
                    file=sys.stderr,
                )
                return 1
            if target not in pins:
                pins[target] = digest
                save_pins(pins)
                print(f"{target}: installed, pinned {digest[:16]}…")
            else:
                print(f"{target}: installed, checksum ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
