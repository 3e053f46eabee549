#!/usr/bin/env python3
"""Fails when an `#[ignore]`d test is run by no CI job.

Tier-1 skips ignored tests; the smoke jobs run them with
`cargo test ... -- --ignored <name filters>`. A filter is a substring, so a
new ignored test whose name matches none of them is silently never run.
This lists every ignored test cargo knows (`-- --list --ignored`), reads the
`cargo test ... --ignored` commands out of the workflow, and reports

  * orphans: ignored tests no command selects, and
  * stale filters: filters that select no test any more.

Run from the repository root: python3 .github/scripts/ignored_tests.py
"""

import re
import subprocess
import sys

WORKFLOW = ".github/workflows/ci.yml"


def run_commands(text):
    """The `run:` scripts of a workflow, folded onto one line each."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", lines[i])
        i += 1
        if not match:
            continue
        indent, rest = len(match.group(1)), match.group(2)
        if rest not in (">", "|", ">-", "|-"):
            yield rest
            continue
        block = []
        while i < len(lines) and (
            not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i].strip())
            i += 1
        yield " ".join(block)


def ignored_selectors(workflow_text):
    """(target, filters, command) of every `cargo test ... --ignored` command.

    `target` is `lib:<crate>` or `test:<name>` as `cargo test` names the
    binary; no filters means the command runs every ignored test there.
    """
    for script in run_commands(workflow_text):
        for command in re.split(r"&&|;|\|\|", script):
            words = command.split()
            if words[:2] != ["cargo", "test"] or "--ignored" not in words:
                continue
            split = words.index("--")
            cargo_args, test_args = words[:split], words[split + 1 :]
            package = cargo_args[cargo_args.index("-p") + 1]
            if "--test" in cargo_args:
                target = "test:" + cargo_args[cargo_args.index("--test") + 1]
            elif "--lib" in cargo_args:
                target = "lib:" + package.replace("-", "_")
            else:
                sys.exit(f"{WORKFLOW}: name --lib or --test in: {command.strip()}")
            filters = [w for w in test_args if not w.startswith("--")]
            yield target, filters, command.strip()


def ignored_tests():
    """(target, test name) of every ignored test in the workspace."""
    listing = subprocess.run(
        ["cargo", "test", "--workspace", "--", "--list", "--ignored"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=True,
    ).stdout
    target = None
    for line in listing.splitlines():
        running = re.match(r"^\s*Running (\S+) (\S+ )?\((\S+)\)$", line)
        if running:
            kind = running.group(1)
            stem = running.group(3).rsplit("/", 1)[-1].rsplit("-", 1)[0]
            target = ("lib:" if kind == "unittests" else "test:") + stem
            if kind == "unittests" and "src/lib.rs" not in line:
                target = "bin:" + stem
        elif line.endswith(": test") and target:
            yield target, line[: -len(": test")]


def main():
    with open(WORKFLOW, encoding="utf-8") as handle:
        selectors = list(ignored_selectors(handle.read()))
    tests = list(ignored_tests())
    if not tests:
        sys.exit("cargo listed no ignored test at all: the listing is broken")

    used = set()
    orphans = []
    for target, name in tests:
        owners = [
            (index, flt)
            for index, (sel_target, filters, _) in enumerate(selectors)
            if sel_target == target
            for flt in (filters or [""])
            if flt in name
        ]
        used.update(owners)
        if not owners:
            orphans.append(f"{target} {name}")
    stale = [
        f"'{flt}' in: {command}"
        for index, (_, filters, command) in enumerate(selectors)
        for flt in (filters or [""])
        if (index, flt) not in used
    ]

    print(f"{len(tests)} ignored tests, {len(selectors)} `--ignored` commands in {WORKFLOW}")
    for line in orphans:
        print(f"ORPHAN  no CI job runs {line}")
    for line in stale:
        print(f"STALE   no ignored test matches {line}")
    sys.exit(1 if orphans or stale else 0)


if __name__ == "__main__":
    main()
