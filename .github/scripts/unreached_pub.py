#!/usr/bin/env python3
"""Fails when a `pub` item is named by no code outside its crate.

rustc's `dead_code` lint cannot see a `pub` item: for all it knows, another
crate calls it. So an item that only its own crate uses should be
`pub(crate)` (or private), where the lint sees it again; an item that no
code uses at all then shows up as a warning instead of staying as debt.

This lists every non-test `pub` item (`fn`/`struct`/`enum`/`trait`/`type`/
`const`/`static`, in the lines of each `crates/*/src` file before its first
`#[cfg(test)]`, as CI's line-count table counts them) and looks for its name
as an identifier in the non-test code outside its crate:

  * the other crates' `src/` (comments and string literals stripped),
  * every `egd-bench` binary, the benchmark's `ledger` included,
  * `examples/` and the umbrella crate's `src/`.

A method counts as named when its name is: matching is by name, not by
type, so it can only say "reached" too often, never too seldom. The items
it reports must each be on the allow-list with the test, example or
signature that keeps them `pub`:

  * UNREACHED: an item named by nothing outside its crate, and not listed;
  * STALE: a listed item that no longer exists, or that is now reached.

So the list only shrinks.

Allow-list: .github/scripts/unreached_pub.allow, one item a line as
`crate::module::Type::item  # reason`.

Run from the repository root: python3 .github/scripts/unreached_pub.py
"""

import glob
import os
import re
import subprocess
import sys

ALLOW = ".github/scripts/unreached_pub.allow"

TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|.", re.S)
ITEM_KINDS = {"fn", "struct", "enum", "trait", "type", "const", "static"}
QUALIFIERS = {"const", "unsafe", "async", "extern"}


def tracked_rust_files():
    listing = subprocess.run(
        ["git", "ls-files", "*.rs"], stdout=subprocess.PIPE, text=True, check=True
    ).stdout
    return [path for path in listing.splitlines() if os.path.isfile(path)]


def nontest(text):
    """The lines of a file before its first `#[cfg(test)]`."""
    match = re.search(r"^[ \t]*#\[cfg\(test\)\]", text, re.M)
    return text if match is None else text[: match.start()]


LITERAL = re.compile(
    r"//[^\n]*"  # line comment
    r"|/\*"  # block comment (nested: walked below)
    r"|\bb?r(#*)\".*?\"\1"  # raw string
    r"|\"(?:\\.|[^\"\\])*\""  # string
    r"|'(?:\\.[^']*|[^\\'])'",  # char (not a lifetime)
    re.S,
)

BLOCK_COMMENT = re.compile(r"/\*|\*/")


def strip(text):
    """Comments and string/char literals blanked out, newlines kept."""
    out, i = [], 0
    while True:
        match = LITERAL.search(text, i)
        if match is None:
            return "".join(out) + text[i:]
        out.append(text[i : match.start()])
        end = match.end()
        if match.group(0) == "/*":
            depth = 1
            while depth and end < len(text):
                step = BLOCK_COMMENT.search(text, end)
                if step is None:
                    end = len(text)
                    break
                depth += 1 if step.group(0) == "/*" else -1
                end = step.end()
        out.append(" " + "\n" * text.count("\n", match.start(), end))
        i = end


def identifiers(text):
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", strip(nontest(text))))


def module_path(crate_src, path):
    """`egd_core::game::compiled` for crates/egd-core/src/game/compiled.rs."""
    parts = os.path.relpath(path, crate_src)[: -len(".rs")].split(os.sep)
    if parts[-1] in ("lib", "mod"):
        parts = parts[:-1]
    return parts


def self_type(tokens):
    """The type an `impl ... {` header implements for."""
    words, depth = [], 0
    for tok in tokens[1:]:
        if tok == "<":
            depth += 1
        elif tok == ">":
            depth -= 1
        elif depth == 0 and tok == "for":
            words = []
        elif depth == 0 and tok == "where":
            break
        elif depth == 0 and re.match(r"[A-Za-z_]", tok):
            words.append(tok)
    return words[-1] if words else "?"


def pub_items(text):
    """(path inside the file, line) of each `pub` item of a file's non-test lines.

    Items inside a function body, a struct literal or any other block that is
    not a module or an impl are skipped.
    """
    code = strip(nontest(text))
    tokens, lines = [], []
    line = 1
    for match in TOKEN.finditer(code):
        tok = match.group(0)
        if tok == "\n":
            line += 1
        if tok.isspace():
            continue
        tokens.append(tok)
        lines.append(line)
    stack, start = [], 0
    for i, tok in enumerate(tokens):
        if tok == "{":
            header = tokens[start:i]
            while header and header[0] == "#":
                header = header[header.index("]") + 1 :] if "]" in header else []
            if "mod" in header:
                stack.append(header[header.index("mod") + 1])
            elif header[:1] == ["impl"] or header[:2] == ["unsafe", "impl"]:
                stack.append(self_type(header[header.index("impl") :]))
            else:
                stack.append(None)
            start = i + 1
        elif tok == "}":
            if stack:
                stack.pop()
            start = i + 1
        elif tok == ";":
            start = i + 1
        elif tok == "pub" and None not in stack and tokens[i + 1] != "(":
            j = i + 1
            while tokens[j] in QUALIFIERS and tokens[j + 1] in ITEM_KINDS | QUALIFIERS:
                j += 1
            if tokens[j] in ITEM_KINDS:
                yield stack + [tokens[j + 1]], lines[i]


def main():
    files = tracked_rust_files()
    texts = {}
    for path in files:
        with open(path, encoding="utf-8") as handle:
            texts[path] = handle.read()

    crates = sorted(glob.glob("crates/*/src"))
    named_outside = {}
    for crate_src in crates:
        inside = [
            p
            for p in files
            if p.startswith(crate_src + "/") and not p.startswith(crate_src + "/bin/")
        ]
        names = set()
        for path in files:
            outside = path not in inside and (
                path.startswith("crates/") or path.startswith("examples/") or path.startswith("src/")
            )
            if outside and "/benches/" not in path and "/tests/" not in path:
                names |= identifiers(texts[path])
        named_outside[crate_src] = (inside, names)

    items = {}
    for crate_src in crates:
        inside, names = named_outside[crate_src]
        crate = os.path.basename(os.path.dirname(crate_src)).replace("-", "_")
        for path in inside:
            prefix = [crate] + module_path(crate_src, path)
            for inner, line in pub_items(texts[path]):
                key = "::".join(prefix + inner)
                reached = inner[-1] in names
                place = f"{path}:{line}"
                if key in items:
                    reached = reached or items[key][0]
                items[key] = (reached, place)

    allowed = {}
    if os.path.exists(ALLOW):
        with open(ALLOW, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, 1):
                entry, _, reason = raw.partition("#")
                entry = entry.strip()
                if not entry:
                    continue
                if not reason.strip():
                    sys.exit(f"{ALLOW}:{number}: `{entry}` gives no reason")
                allowed[entry] = number

    unreached = sorted(key for key, (reached, _) in items.items() if not reached)
    missing = [key for key in unreached if key not in allowed]
    stale = [
        (number, entry, "no such item" if entry not in items else "now named outside its crate")
        for entry, number in sorted(allowed.items(), key=lambda kv: kv[1])
        if entry not in items or items[entry][0]
    ]

    print(
        f"{len(items)} non-test `pub` items, {len(unreached)} named by nothing outside "
        f"their crate, {len(allowed)} on {ALLOW}"
    )
    for key in missing:
        print(f"UNREACHED  {items[key][1]}  {key}")
    for number, entry, why in stale:
        print(f"STALE      {ALLOW}:{number}  {entry}: {why}")
    sys.exit(1 if missing or stale else 0)


if __name__ == "__main__":
    main()
