#!/usr/bin/env python3
"""The non-test part of Rust source files, as CI counts it.

A `#[cfg(test)]` item is test code: the attribute, any attributes after it
and the item itself, through its closing brace or its `;`. Everything else
in a file is non-test code, including what follows a test-gated item in the
middle of a file.

Used by CI's line-count table (`lines`, `pubs`) and by `unreached_pub.py`
(`nontest`, `strip`):

  python3 .github/scripts/nontest.py lines FILE...  # non-test lines, summed
  python3 .github/scripts/nontest.py pubs FILE...   # non-test `pub` items, summed

A `pub` item is a line that starts with `pub`, then any of `const`/`unsafe`/
`async`, then `fn`/`struct`/`enum`/`trait`/`type`/`const`/`static`; a
`pub(crate)` item is not one.
"""

import re
import sys

LITERAL = re.compile(
    r"//[^\n]*"  # line comment
    r"|/\*"  # block comment (nested: walked below)
    r"|\bb?r(#*)\".*?\"\1"  # raw string
    r"|\"(?:\\.|[^\"\\])*\""  # string
    r"|'(?:\\.[^']*|[^\\'])'",  # char (not a lifetime)
    re.S,
)

BLOCK_COMMENT = re.compile(r"/\*|\*/")

TEST_GATE = re.compile(r"#\[cfg\(test\)\]")

PUB_ITEM = re.compile(
    r"^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|type|const|static)[ \t]",
    re.M,
)

OPEN, CLOSE = "([{", ")]}"


def strip(text):
    """Comments and string/char literals blanked out, offsets and newlines kept."""
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
        out.append(re.sub(r"[^\n]", " ", text[match.start() : end]))
        i = end


def skip_attributes(code, i):
    """The offset of the first non-blank character after any `#[...]`s at `i`."""
    while True:
        while i < len(code) and code[i].isspace():
            i += 1
        if not code.startswith("#[", i):
            return i
        depth = 0
        while i < len(code):
            depth += code[i] == "["
            depth -= code[i] == "]"
            i += 1
            if depth == 0:
                break


def item_end(code, i):
    """The offset just past the item that starts at `i`: its `;` or `,` at
    depth zero, the `}` that closes its first top-level brace, or the closer
    of the enclosing block (exclusive)."""
    depth = 0
    while i < len(code):
        c = code[i]
        if c in OPEN:
            depth += 1
        elif c in CLOSE:
            depth -= 1
            if depth < 0:
                return i
            if depth == 0 and c == "}":
                return i + 1
        elif c in ";," and depth == 0:
            return i + 1
        i += 1
    return i


def test_spans(text):
    """(start, end) offsets of each `#[cfg(test)]` item, in order."""
    code = strip(text)
    spans, i = [], 0
    while True:
        match = TEST_GATE.search(code, i)
        if match is None:
            return spans
        end = item_end(code, skip_attributes(code, match.start()))
        spans.append((match.start(), end))
        i = end


def nontest(text):
    """The text with every `#[cfg(test)]` item cut out: each whole line from
    the attribute's line through the line the item ends on."""
    out, last = [], 0
    for start, end in test_spans(text):
        line_start = text.rfind("\n", 0, start) + 1
        line_end = text.find("\n", end)
        line_end = len(text) if line_end < 0 else line_end + 1
        out.append(text[last:line_start])
        last = line_end
    out.append(text[last:])
    return "".join(out)


def count_lines(text):
    return text.count("\n") + (1 if text and not text.endswith("\n") else 0)


def main():
    if len(sys.argv) < 2 or sys.argv[1] not in ("lines", "pubs"):
        sys.exit("usage: nontest.py lines|pubs FILE...")
    total = 0
    for path in sys.argv[2:]:
        with open(path, encoding="utf-8") as handle:
            code = nontest(handle.read())
        if sys.argv[1] == "lines":
            total += count_lines(code)
        else:
            total += len(PUB_ITEM.findall(code))
    print(total)


if __name__ == "__main__":
    main()
