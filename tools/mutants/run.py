#!/usr/bin/env python3
"""Mutation runner: applies each find/replace mutant of mutants.json to a
scratch copy of the repository, rebuilds it incrementally and runs ctest.

A mutant is *killed* when the build succeeds and at least one test fails.
Every mutant must be killed, except those marked "equivalent" (with the
argument why no test can tell them from the original), which must survive.
A mutant whose `find` text does not occur exactly once, or that does not
compile, is an error in the list. The exit status is 0 only when every
mutant behaves as listed.

Usage:
  python3 tools/mutants/run.py --work <scratch dir> [--only id,id] [-j N]

The scratch directory receives a copy of the tracked and untracked,
non-ignored files (`git ls-files`) and a build tree; it is reused across
runs, so a second run rebuilds only what the mutants touch.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
TEST_TIMEOUT_S = 300  # per ctest test: a mutant that loops forever is killed


def run(cmd, cwd=None):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def copy_tree(src_root, dst_root):
    files = run(["git", "ls-files", "-co", "--exclude-standard", "-z"],
                cwd=src_root)
    if files.returncode != 0:
        sys.exit("git ls-files failed:\n" + files.stdout)
    for rel in filter(None, files.stdout.split("\0")):
        src = os.path.join(src_root, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        dst = os.path.join(dst_root, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        # Copy only what changed, so a reused build tree stays incremental,
        # and stamp the copy with the current time: the source's own mtime
        # may predate objects built from an older copy.
        if os.path.exists(dst) and open(src, "rb").read() == open(dst, "rb").read():
            continue
        shutil.copyfile(src, dst)
        shutil.copymode(src, dst)


def build(build_dir, jobs):
    return run(["cmake", "--build", build_dir, "-j", str(jobs)])


def failed_tests(build_dir, jobs):
    """Names of the ctest tests that fail, or None if all pass."""
    res = run(["ctest", "--test-dir", build_dir, "-j", str(jobs),
               "--timeout", str(TEST_TIMEOUT_S)])
    if res.returncode == 0:
        return None
    names = re.findall(r"^\s*\d+ - (\S+) \(", res.stdout, re.MULTILINE)
    return names or ["<ctest exit %d>" % res.returncode]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", required=True,
                    help="scratch directory for the copy and its build")
    ap.add_argument("--only", default="",
                    help="comma-separated mutant ids to run")
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 2)
    args = ap.parse_args()

    mutants = json.load(open(os.path.join(HERE, "mutants.json")))
    if args.only:
        wanted = set(args.only.split(","))
        mutants = [m for m in mutants if m["id"] in wanted]
    src_dir = os.path.join(os.path.abspath(args.work), "src")
    build_dir = os.path.join(os.path.abspath(args.work), "build")
    copy_tree(REPO, src_dir)
    conf = run(["cmake", "-B", build_dir, "-S", src_dir])
    if conf.returncode != 0:
        sys.exit("configure failed:\n" + conf.stdout)
    base = build(build_dir, args.jobs)
    if base.returncode != 0:
        sys.exit("the unmutated copy does not build:\n" + base.stdout[-4000:])
    if failed_tests(build_dir, args.jobs) is not None:
        sys.exit("the unmutated copy fails ctest; fix that first")

    rows = []
    ok = True
    for m in mutants:
        path = os.path.join(src_dir, m["file"])
        original = open(path).read()
        start = time.monotonic()
        if original.count(m["find"]) != 1:
            status, detail = "error", "find text occurs %d times" % (
                original.count(m["find"]))
        else:
            open(path, "w").write(original.replace(m["find"], m["replace"]))
            try:
                if build(build_dir, args.jobs).returncode != 0:
                    status, detail = "error", "does not compile"
                else:
                    failed = failed_tests(build_dir, args.jobs)
                    status = "survived" if failed is None else "killed"
                    detail = ", ".join(failed or [])
            finally:
                open(path, "w").write(original)
        equivalent = "equivalent" in m
        if status == "survived" and equivalent:
            status = "equivalent"
        elif status == "killed" and equivalent:
            status, detail = "error", "marked equivalent but killed by " + detail
        ok = ok and status in ("killed", "equivalent")
        rows.append((m["id"], m["file"], status, detail,
                     time.monotonic() - start))
        print("%-28s %-10s %s" % (m["id"], status, detail), flush=True)
    # Leave the copy's build matching the unmutated sources.
    build(build_dir, args.jobs)

    print("\n| mutant | file | result | killed by | s |")
    print("|---|---|---|---|---|")
    for mid, f, status, detail, secs in rows:
        print("| %s | %s | %s | %s | %.0f |" % (mid, f, status, detail, secs))
    killed = sum(1 for r in rows if r[2] == "killed")
    equiv = sum(1 for r in rows if r[2] == "equivalent")
    print("\n%d mutants: %d killed, %d equivalent, %d not as listed" %
          (len(rows), killed, equiv, len(rows) - killed - equiv))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
