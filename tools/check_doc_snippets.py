#!/usr/bin/env python3
"""Compile every ```cpp block of README.md and docs/*.md, syntax only.

Each block becomes the body of its own function, after a per-file preamble
that includes the umbrella header and declares the names the prose around
the blocks assumes (backend, app, grid, ...). A block that names a deleted or
misspelled API fails to compile, and the compiler reports the Markdown line
(via #line). Exits non-zero if any file fails.

    python3 tools/check_doc_snippets.py [--cxx g++]
"""

import argparse
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

COMMON = """#include <iostream>
#include <vector>

#include "neon.hpp"
"""

# Names each file's blocks use without defining them.
PREAMBLES = {
    "README.md": """
extern neon::set::Backend               backend;
extern neon::skeleton::Skeleton         app;
extern neon::skeleton::CompiledSchedule schedule;
""",
    "docs/analysis.md": """
using neon::skeleton::SequenceOptions;
extern neon::set::Backend                backend;
extern std::vector<neon::set::Container> ops;
extern neon::skeleton::Skeleton          sk;
""",
    "docs/observability.md": """
extern neon::set::Backend       backend;
extern neon::set::Profiler      profiler;
extern neon::skeleton::Skeleton app;
extern neon::skeleton::Skeleton skeleton;
""",
    "docs/performance.md": """
using neon::skeleton::SequenceOptions;
extern neon::set::Backend                backend;
extern neon::skeleton::Skeleton          app;
extern std::vector<neon::set::Container> ops;
extern neon::Occ                         occ;
""",
    "docs/robustness.md": """
using namespace neon;
extern sys::SimConfig              cfg;
extern dgrid::DGrid                grid;
extern skeleton::Skeleton          skl;
extern std::vector<set::Container> ops;
""",
    "docs/service.md": """
extern neon::set::Container sweepEven;
extern neon::set::Container sweepOdd;
extern neon::set::Container residual;
""",
}

BLOCK = re.compile(r"^```cpp\n(.*?)^```", re.S | re.M)


def translation_unit(rel, text):
    """The file's blocks as one C++ source, or None when it has none."""
    parts = [COMMON, PREAMBLES.get(rel, "")]
    count = 0
    for m in BLOCK.finditer(text):
        line = text.count("\n", 0, m.start(1)) + 1
        parts.append("void docSnippet%d()\n{\n#line %d \"%s\"\n%s}\n" %
                     (count, line, rel, m.group(1)))
        count += 1
    return ("".join(parts), count) if count else (None, 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cxx", default="g++", help="C++20 compiler (default: g++)")
    args = ap.parse_args()

    files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    failed = []
    blocks = 0
    checked = 0
    for path in files:
        rel = path.relative_to(REPO).as_posix()
        source, count = translation_unit(rel, path.read_text())
        if source is None:
            continue
        checked += 1
        blocks += count
        proc = subprocess.run(
            # Snippets call getters for show, so unused results are fine.
            [args.cxx, "-std=c++20", "-fsyntax-only", "-Wno-unused-result", "-I",
             str(REPO / "src"), "-x", "c++", "-"],
            input=source, text=True, capture_output=True)
        status = "ok" if proc.returncode == 0 else "FAILED"
        print("%-24s %2d block(s) %s" % (rel, count, status))
        if proc.returncode != 0:
            failed.append(rel)
            sys.stderr.write(proc.stderr)
    print("%d block(s) in %d file(s), %d file(s) failed" % (blocks, checked, len(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
