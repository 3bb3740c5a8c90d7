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

The filter family table is checked both ways as well: every
`Row<Class>("name")` of the catalogue in src/core/filter_registry.cc,
with that class's `kFamilyId` (read per class from the headers the
catalogue includes), must be a `| id | `name` | ...` row of the table in
FORMAT.md's "Filter block" section, and that table must hold no other
row.

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

CATALOGUE = "src/core/filter_registry.cc"
ROW_RE = re.compile(r'Row<(\w+)>\("([^"]+)"')
INCLUDE_RE = re.compile(r'#include "([^"]+\.h)"')
# A class definition (not a forward or friend declaration) or a family id.
CLASS_OR_ID_RE = re.compile(
    r"\bclass\s+(\w+)[^;{]*\{|static\s+constexpr\s+uint32_t\s+"
    r"kFamilyId\s*=\s*(\d+)\s*;"
)
# A family table row in the doc: | id | `name` | ...
DOC_FAMILY_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*`([\w-]+)`\s*\|")


def family_ids_by_class(header_text):
    """Maps each class in a header to the kFamilyId declared in its body
    (the constant belongs to the most recent class definition above it)."""
    ids, current = {}, None
    for m in CLASS_OR_ID_RE.finditer(header_text):
        if m.group(1):
            current = m.group(1)
        elif current is not None and current not in ids:
            ids[current] = int(m.group(2))
    return ids


def check_family_table(doc_lines, errors):
    """The catalogue's name -> wire id rows must match the doc's table."""
    catalogue = (ROOT / CATALOGUE).read_text(encoding="utf-8")
    rows = ROW_RE.findall(catalogue)
    if not rows:
        errors.append(f"{CATALOGUE}: no Row<Class>(\"name\") rows found")
    ids = {}
    for header in INCLUDE_RE.findall(catalogue):
        path = ROOT / "src" / header
        if path.exists():
            ids.update(family_ids_by_class(path.read_text(encoding="utf-8")))
    code = {}
    for cls, name in rows:
        if cls not in ids:
            errors.append(f"{CATALOGUE}: row \"{name}\" names {cls}, which "
                          f"declares no kFamilyId in an included header")
            continue
        code[name] = ids[cls]

    section, doc = False, {}
    for line in doc_lines:
        if line.startswith("#"):
            section = line.strip() == "### Filter block"
            continue
        m = DOC_FAMILY_RE.match(line) if section else None
        if m:
            name, value = m.group(2), int(m.group(1))
            if name in doc:
                errors.append(f"docs/FORMAT.md lists family \"{name}\" twice")
            doc[name] = value
    for name, value in code.items():
        if name not in doc:
            errors.append(f"docs/FORMAT.md's family table has no row for "
                          f"\"{name}\" (id {value})")
        elif doc[name] != value:
            errors.append(f"docs/FORMAT.md gives family \"{name}\" id "
                          f"{doc[name]}, the code {value}")
    for name in doc:
        if name not in code:
            errors.append(f"docs/FORMAT.md's family table lists \"{name}\", "
                          f"which is not a row of {CATALOGUE}")
    return len(code)


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

    n_families = check_family_table(doc_lines, errors)

    checked = {name for names in SOURCES.values() for name in names}
    checked.add("kFamilyId")
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
    print(f"docs/FORMAT.md matches all {total} format constants and "
          f"{n_families} filter family ids in the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
