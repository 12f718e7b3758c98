#!/usr/bin/env python3
"""Fails when a design document names something that does not exist.

Usage: tests/doc_references.py [<repo-root>]   (default: this file's repo)

Reads the inline code spans of DESIGN.md, README.md and
.claude/skills/verify/SKILL.md (fenced blocks are not read). Each
whitespace-separated piece of a span, and each name inside a piece, is
checked as one of:

  paths        A piece with a '/' whose first component is a top-level entry
               of the repository, a directory of src/ or a build tree, and a
               piece ending in a source or document extension, must exist.
               A module stem (src/spice/parser) resolves to its .hpp or .cpp,
               src/<module>/ may be written <module>/, a name without a
               directory may sit anywhere in the tree, a trailing :line is
               dropped, and '*' and <placeholder> match any characters.
  golden keys  A path-like piece that is no file passes when it matches a
               key of tests/goldens.txt (flow/<circuit>/<mode>/s<seed>).
  tests        Suite.Test, Prefix/Suite.Test and gtest filter patterns
               (Suite.*, Name*, several joined by ':') must match a TEST,
               TEST_F or TEST_P in tests/.
  binaries     test_*, bench_*, *_smoke and *_stress names, the last
               component of a build-tree path and the -R argument of a
               ctest command must name a CMake target (add_executable,
               add_library, or a CMake function that calls one) or an
               add_test name.
  identifiers  CamelCase and kConstant names, a::b names (std:: excluded),
               whole snake_case pieces and OLP_* names must appear as a word
               in src/, include/, tests/, bench/, examples/ or the root
               CMakeLists.txt.

It also resolves every "DESIGN.md §x" or "DESIGN §x" pointer, and every bare
§x inside DESIGN.md, to a DESIGN.md heading numbered x. Pointers are read in
README.md, ROADMAP.md, EXPERIMENTS.md, DESIGN.md, the verify skill and the
sources under src/, include/, tests/, bench/, examples/ and .github/.
CHANGES.md is not read: it cites sections as they were when each change
landed.

What is not checked follows from these rules, never from a list of names:
  - output files a build or a run writes: under a build tree (build/,
    build-*/, .bench_build/, <tree>/) only a target name is checked, a path
    ending in '/' there is a directory, names matching a .gitignore pattern
    are skipped, and a data file (.json, .jsonl, .svg, .sp) named without a
    directory is what a run writes;
  - absolute paths, URLs and command-line flags (pieces starting with -);
  - dotted lowercase names (spans, counters, metrics) and plain words.

Prints "file:line: token" for each miss and exits 1 when there is any.
"""

import fnmatch
import os
import re
import sys

DOCUMENTS = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"]
POINTER_DOCUMENTS = DOCUMENTS + ["ROADMAP.md", "EXPERIMENTS.md"]
CODE_DIRS = ["src", "include", "tests", "bench", "examples"]
SOURCE_EXTENSIONS = (".cpp", ".hpp", ".h", ".py", ".sh", ".txt", ".cmake",
                     ".yml", ".yaml")
DOCUMENT_EXTENSIONS = SOURCE_EXTENSIONS + (".md",)
DATA_EXTENSIONS = (".json", ".jsonl", ".svg", ".sp")
BUILD_TREES = re.compile(r"^(build|build-[\w-]+|\.bench_build|<tree>)$")
LINE_SUFFIX = re.compile(r":\d+([-–,]\d+)*$")

TEST_REF = re.compile(r"^(?:[A-Z]\w*/)?[A-Z][\w*]*\.(?:[A-Z][\w*]*|\*)$")
BINARY_SHAPE = re.compile(r"^(test|bench)_\w+$|^\w+_(smoke|stress)$")
SNAKE = re.compile(r"^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$")
CAMEL = re.compile(r"\b(?:[A-Z][a-z0-9]+[A-Z]\w*|k[A-Z]\w+)\b")
SCOPED = re.compile(r"\b[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
OLP_NAME = re.compile(r"(?:\b|(?<=-D))OLP_[A-Z0-9_]+\b")
SECTION = re.compile(r"§\s?([0-9][\w.]*)")
POINTER = re.compile(r"DESIGN(?:\.md)?\s+((?:§\s?[0-9][\w.]*[\s/,–-]*)+)")


class Repo:
    """What exists: files, words of the code, targets, tests, golden keys."""

    def __init__(self, root):
        self.root = root
        self.files = set()
        for dirpath, dirnames, filenames in os.walk(root):
            rel = os.path.relpath(dirpath, root)
            dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__")
                           and not (rel == "." and BUILD_TREES.match(d))]
            self.files.update(os.path.normpath(os.path.join(rel, f))
                              for f in filenames)
        self.dirs = set()
        for f in self.files:
            d = os.path.dirname(f)
            while d:
                self.dirs.add(d)
                d = os.path.dirname(d)
        self.top = {f.split("/")[0] for f in self.files}
        self.modules = {d.split("/")[1] for d in self.dirs
                        if d.startswith("src/")}
        self.basenames = {os.path.basename(f) for f in self.files}
        self.ignored = [l.strip().rstrip("/")
                        for l in self.read(".gitignore").splitlines()
                        if l.strip() and not l.startswith("#")]
        # This script is not code the documents describe: its own words
        # (the examples in its docstring) prove nothing exists.
        this_script = os.path.relpath(os.path.abspath(__file__), root)
        self.words = set()
        for f in self.files:
            if f == this_script:
                continue
            if f.split("/")[0] in CODE_DIRS or f == "CMakeLists.txt":
                self.words.update(re.findall(r"\w+", self.read(f)))
        self.targets, self.ctests = self._cmake()
        self.tests = self._gtests()
        self.golden_keys = [l.split()[0] for l in
                            self.read("tests/goldens.txt").splitlines()
                            if l.strip()]
        self.golden_prefixes = {k.split("/")[0] for k in self.golden_keys}

    def read(self, rel):
        path = os.path.join(self.root, rel)
        if not os.path.isfile(path):
            return ""
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()

    def _cmake(self):
        text = "\n".join(self.read(f) for f in self.files
                         if os.path.basename(f) == "CMakeLists.txt")
        creators = {"add_executable", "add_library"}
        for name, arg, body in re.findall(
                r"function\((\w+)\s+(\w+)[^)]*\)(.*?)endfunction", text, re.S):
            if re.search(r"add_(executable|library)\(\$\{" + arg + r"\}", body):
                creators.add(name)
        targets = {m.group(2) for m in re.finditer(
            r"^\s*(\w+)\(\s*([\w.-]+)", text, re.M) if m.group(1) in creators}
        return targets, set(re.findall(r"add_test\(\s*NAME\s+([\w.-]+)", text))

    def _gtests(self):
        texts = [self.read(f) for f in self.files
                 if f.startswith("tests/") and f.endswith(".cpp")]
        prefixes = {}
        for text in texts:
            for prefix, suite in re.findall(
                    r"INSTANTIATE_TEST_SUITE_P\(\s*(\w+)\s*,\s*(\w+)", text):
                prefixes.setdefault(suite, []).append(prefix)
        tests = set()
        for text in texts:
            for kind, suite, name in re.findall(
                    r"\bTEST(|_F|_P)\(\s*(\w+)\s*,\s*(\w+)\s*\)", text):
                tests.add(suite + "." + name)
                if kind == "_P":
                    tests.update(p + "/" + suite + "." + name
                                 for p in prefixes.get(suite, []))
        return tests

    def test_matches(self, pattern):
        return any(fnmatch.fnmatchcase(t, pattern) for t in self.tests)

    def binary_exists(self, name):
        return name in self.targets or name in self.ctests

    def path_exists(self, token):
        token = LINE_SUFFIX.sub("", token).rstrip("/")
        if token.startswith("./"):
            token = token[2:]
        candidates = [token]
        if token.split("/")[0] in self.modules:
            candidates.append("src/" + token)
        candidates += [c + ext for c in candidates if not os.path.splitext(c)[1]
                       for ext in (".hpp", ".cpp")]
        pool = (self.files | self.dirs) if "/" in token else self.basenames
        for c in candidates:
            glob = re.sub(r"<[^<>/]*>", "*", c)
            if "*" in glob:
                if fnmatch.filter(pool, glob):
                    return True
            elif c in pool:
                return True
        return False

    def is_output(self, token):
        name = token.rstrip("/")
        return any(fnmatch.fnmatch(name, p) or
                   fnmatch.fnmatch(os.path.basename(name), p)
                   for p in self.ignored)


def clean(piece):
    return piece.strip("()[]{},;\"'`").rstrip(":.")


def check_piece(repo, piece):
    """The misses of one whitespace-separated piece of a span."""
    piece = clean(piece)
    if not piece or "://" in piece or piece.startswith("/"):
        return []
    if piece.startswith("--gtest_filter="):
        patterns = piece.split("=", 1)[1].strip("'\"")
        return [p for p in re.split(r"[:-]", patterns)
                if p and not repo.test_matches(p)]
    if piece.startswith("-") or "=" in piece:
        return []
    if TEST_REF.match(piece):
        return [] if repo.test_matches(piece) else [piece]
    first = piece.split("/")[0]
    if "/" in piece and BUILD_TREES.match(first):
        last = piece.split("/")[-1]
        if not last or os.path.splitext(last)[1] or "*" in last or "<" in last:
            return []
        return [] if repo.binary_exists(last) else [piece]
    bare = LINE_SUFFIX.sub("", piece)
    pathlike = "/" in piece and (first in repo.top or first in repo.modules
                                 or first in repo.golden_prefixes)
    if pathlike or bare.endswith(DOCUMENT_EXTENSIONS) or (
            "/" in bare and bare.endswith(DATA_EXTENSIONS)):
        if repo.is_output(piece) or repo.path_exists(piece):
            return []
        key = re.sub(r"<[^<>/]*>", "*", piece.rstrip("/"))
        if first in repo.golden_prefixes and fnmatch.filter(repo.golden_keys,
                                                            key):
            return []
        return [piece]
    if BINARY_SHAPE.match(piece):
        return [] if repo.binary_exists(piece) else [piece]
    if SNAKE.match(piece) and piece not in repo.words:
        return [piece]
    return []


def check_names(repo, piece):
    """The C++ identifiers and OLP_* names in a piece that no code has."""
    if TEST_REF.match(clean(piece)):
        return []
    misses = []
    for name in SCOPED.findall(piece):
        parts = [p.lstrip("~") for p in name.split("::")]
        if parts[0] != "std" and any(p not in repo.words for p in parts):
            misses.append(name)
    names = CAMEL.findall(SCOPED.sub(" ", piece)) + OLP_NAME.findall(piece)
    return misses + [n for n in names if n not in repo.words]


def check_ctest_regexes(repo, span):
    """The -R arguments of a ctest command that select nothing."""
    if not span.lstrip().startswith("ctest"):
        return []
    names = repo.targets | repo.ctests | repo.tests
    misses = []
    for regex in re.findall(r"-R\s+(\S+)", span):
        try:
            if not any(re.search(regex, n) for n in names):
                misses.append(regex)
        except re.error:
            misses.append(regex)
    return misses


def code_spans(text):
    """Yields (line number, span text) for the spans outside fenced blocks."""
    lines, fenced = [], False
    for line in text.split("\n"):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            line = ""
        lines.append("" if fenced else line)
    body = "\n".join(lines)
    for m in re.finditer(r"(`+)(?!`)(.+?)(?<!`)\1(?!`)", body, re.S):
        if "\n\n" not in m.group(2):
            yield body.count("\n", 0, m.start(2)) + 1, m.group(2)


def check_documents(repo):
    misses = []
    for doc in DOCUMENTS:
        if doc not in repo.files:
            misses.append((doc, 0, "(missing document)"))
            continue
        for line, span in code_spans(repo.read(doc)):
            found = check_ctest_regexes(repo, span)
            for piece in span.split():
                found += check_names(repo, piece) + check_piece(repo, piece)
            for token in dict.fromkeys(found):
                offset = max(span.find(token), 0)
                misses.append((doc, line + span.count("\n", 0, offset), token))
    return misses


def check_pointers(repo):
    ids = set()
    for line in repo.read("DESIGN.md").splitlines():
        m = re.match(r"#+\s+([0-9]+[a-z]?(?:\.[0-9]+)*)[.\s]", line)
        if m:
            ids.add(m.group(1))
    files = [d for d in POINTER_DOCUMENTS if d in repo.files]
    files += sorted(f for f in repo.files
                    if f.split("/")[0] in CODE_DIRS + [".github"]
                    and f.endswith(SOURCE_EXTENSIONS))
    misses = []
    for f in files:
        text = repo.read(f)
        refs = []  # (offset, section id)
        if f == "DESIGN.md":
            refs = [(r.start(), r.group(1)) for r in SECTION.finditer(text)]
        for m in POINTER.finditer(text):
            refs += [(m.start() + r.start(), r.group(1))
                     for r in SECTION.finditer(m.group(0))]
        for offset, ref in sorted(set(refs)):
            if ref.rstrip(".") not in ids:
                misses.append((f, text.count("\n", 0, offset) + 1,
                               "§" + ref.rstrip(".")))
    return misses


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    repo = Repo(root)
    misses = check_documents(repo) + check_pointers(repo)
    for f, line, token in misses:
        print(f"{f}:{line}: {token}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
