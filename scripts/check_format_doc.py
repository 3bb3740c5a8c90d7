#!/usr/bin/env python3
"""Guard that docs/FORMAT.md matches the on-disk format constants in the code.

Extracts the named format constants from the C++ sources and verifies
each one is quoted correctly in docs/FORMAT.md:

  * hex-valued constants (magics, footer sentinels, checksum seeds) must
    appear in the doc as the exact hex literal;
  * decimal-valued constants (sizes, opcodes, record kinds, versions)
    must appear on a doc line that also names the constant.

The reverse holds too: every backticked `k[A-Z]...` name in the doc must
be one of the constants checked here, so a constant retired from the
code cannot linger in the doc.

Run from the repository root:  python3 scripts/check_format_doc.py
Exits non-zero (and prints every mismatch) when the doc and code drift.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "FORMAT.md"

# (source file, constant name) -> constants the doc must quote.
SOURCES = {
    "src/lsm/sst.cc": [
        "kSstMagic",
        "kFooterVersion4",
        "kFooterSize",
        "kHandleSize",
        "kFilterChecksumSeed",
    ],
    "src/lsm/ikey.h": [
        "kTagValue",
        "kTagTombstone",
    ],
    "src/lsm/db.cc": [
        "kManifestMagic",
        "kManifestVersion",
        "kManifestRecordSnapshot",
    ],
    "src/lsm/wal.h": [
        "kWalOpPutSeq",
        "kWalOpDeleteSeq",
    ],
    "src/core/filter.h": [
        "kMagic",
        "kVersion",
    ],
}

CONST_RE = re.compile(
    r"constexpr\s+(?:static\s+)?[\w:<>]+\s+(k\w+)\s*=\s*"
    r"(0[xX][0-9a-fA-F']+|\d+)"
)
# "static constexpr" member declarations (core/filter.h).
MEMBER_RE = re.compile(
    r"static\s+constexpr\s+[\w:<>]+\s+(k\w+)\s*=\s*"
    r"(0[xX][0-9a-fA-F']+|\d+)"
)
# A constant name at the start of a backticked span: `kName` or
# `kName = value`.
DOC_NAME_RE = re.compile(r"`(k[A-Z]\w*)")


def extract_constants(text):
    found = {}
    for regex in (CONST_RE, MEMBER_RE):
        for name, literal in regex.findall(text):
            found[name] = literal.replace("'", "")
    return found


def main():
    doc = DOC.read_text(encoding="utf-8")
    doc_lower = doc.lower()
    doc_lines = doc.splitlines()
    errors = []

    for rel_path, names in SOURCES.items():
        source = (ROOT / rel_path).read_text(encoding="utf-8")
        constants = extract_constants(source)
        for name in names:
            if name not in constants:
                errors.append(f"{rel_path}: constant {name} not found in source")
                continue
            literal = constants[name]
            if literal.lower().startswith("0x"):
                # Hex constants: the doc must quote the exact literal.
                if literal.lower() not in doc_lower:
                    errors.append(
                        f"docs/FORMAT.md does not quote {name} = {literal} "
                        f"(from {rel_path})"
                    )
            else:
                # Decimal constants: a doc line naming the constant must
                # also carry the value.
                value_re = re.compile(r"\b" + re.escape(literal) + r"\b")
                naming_lines = [l for l in doc_lines if name in l]
                if not naming_lines:
                    errors.append(
                        f"docs/FORMAT.md never names {name} (from {rel_path})"
                    )
                elif not any(value_re.search(l) for l in naming_lines):
                    errors.append(
                        f"docs/FORMAT.md names {name} but no such line "
                        f"carries its value {literal} (from {rel_path})"
                    )

    checked = {name for names in SOURCES.values() for name in names}
    for name in sorted(set(DOC_NAME_RE.findall(doc)) - checked):
        errors.append(
            f"docs/FORMAT.md names `{name}`, which is not a checked format "
            f"constant (retired from the code, or missing from SOURCES)"
        )

    if errors:
        print("FORMAT.md / source drift detected:")
        for e in errors:
            print(f"  - {e}")
        return 1
    total = sum(len(v) for v in SOURCES.values())
    print(f"docs/FORMAT.md matches all {total} format constants in the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
