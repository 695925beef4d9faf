#!/usr/bin/env python3
"""Selftest for tabbin_lint over tools/lint/fixtures/.

Contract pinned here:
  * every fixtures/bad/**/<rule>.cc trips EXACTLY its named rule (the
    rule is the filename with '_' -> '-'), at least once, and no
    other rule;
  * every fixtures/good/**/*.cc produces zero findings;

A fixture for a path-scoped rule sits in a subdirectory named like the
scope (e.g. bad/exec/ for a rule that polices exec/ directories).
  * --list-rules covers every rule a bad fixture names.

Run from anywhere: paths are resolved relative to this script.
Exit 0 on success, 1 on any contract violation.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "tabbin_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z0-9-]+)\] ")


def run_lint(path):
    """Returns (exit_code, set of rule ids found)."""
    proc = subprocess.run(
        [sys.executable, LINT, "--root", FIXTURES, path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    rules = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            rules.add(m.group(3))
    return proc.returncode, rules, proc.stdout


def fixtures_under(base):
    """Every .cc fixture below `base`, as paths relative to it."""
    out = []
    for dirpath, _, names in os.walk(base):
        for name in names:
            if name.endswith(".cc"):
                out.append(os.path.relpath(os.path.join(dirpath, name), base))
    return sorted(out)


def main():
    failures = []

    bad_dir = os.path.join(FIXTURES, "bad")
    good_dir = os.path.join(FIXTURES, "good")
    bad = fixtures_under(bad_dir)
    good = fixtures_under(good_dir)
    if not bad or not good:
        print("FAIL: fixture directories are empty")
        return 1

    listed = subprocess.run(
        [sys.executable, LINT, "--list-rules"],
        stdout=subprocess.PIPE, text=True).stdout
    catalog = {line.split()[0] for line in listed.splitlines() if line}

    for name in bad:
        expected = os.path.splitext(os.path.basename(name))[0].replace(
            "_", "-")
        code, rules, out = run_lint(os.path.join(bad_dir, name))
        tag = "bad/" + name
        if expected not in catalog:
            failures.append("%s: rule '%s' missing from --list-rules"
                            % (tag, expected))
        if code != 1:
            failures.append("%s: expected exit 1, got %d\n%s"
                            % (tag, code, out))
        if rules != {expected}:
            failures.append("%s: expected exactly {%s}, got %s\n%s"
                            % (tag, expected, sorted(rules) or "{}", out))

    for name in good:
        code, rules, out = run_lint(os.path.join(good_dir, name))
        tag = "good/" + name
        if code != 0 or rules:
            failures.append("%s: expected clean pass, exit %d, rules %s\n%s"
                            % (tag, code, sorted(rules), out))

    if failures:
        for f in failures:
            print("FAIL:", f)
        print("%d fixture contract violation(s)" % len(failures))
        return 1
    print("OK: %d bad + %d good fixtures behave as pinned"
          % (len(bad), len(good)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
