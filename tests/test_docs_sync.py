"""Docs-sync tier: the human-readable contracts in ``docs/`` are
parsed and asserted against the source constants they document, so the
wire-protocol tables and the architecture layer table cannot drift
from the code. Runs in the ``docs-sync`` CI job alongside
``lint-static --check-env-docs``."""

import re
from pathlib import Path

import pytest

from repro.analysis.rules.layering import LAYERS
from repro.api.backends import available_backends, backend_aliases
from repro.net import protocol

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _table_rows(text: str, header_fragment: str):
    """Parse the first markdown table whose header contains
    ``header_fragment``; yields each row as a list of cell strings."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("|") and header_fragment in line:
            rows = []
            for row_line in lines[i + 2 :]:  # skip the |---| separator
                if not row_line.lstrip().startswith("|"):
                    break
                cells = [c.strip() for c in row_line.strip().strip("|").split("|")]
                rows.append(cells)
            assert rows, f"table {header_fragment!r} has no rows"
            return rows
    raise AssertionError(f"no markdown table with header {header_fragment!r}")


def _code(cell: str) -> str:
    """The backticked token in a table cell."""
    match = re.search(r"`([^`]+)`", cell)
    assert match, f"cell {cell!r} has no backticked token"
    return match.group(1)


@pytest.fixture(scope="module")
def protocol_doc():
    return (DOCS / "PROTOCOL.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def architecture_doc():
    return (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")


class TestProtocolDoc:
    def test_documented_version_matches(self, protocol_doc):
        match = re.search(
            r"current protocol version is `(\d+)`", protocol_doc
        )
        assert match, "PROTOCOL.md must state the current protocol version"
        assert int(match.group(1)) == protocol.VERSION

    def test_kind_table_matches_constants(self, protocol_doc):
        rows = _table_rows(protocol_doc, "Kind | Value")
        documented = {_code(row[0]): int(row[1]) for row in rows}
        want = {
            "REQUEST": protocol.REQUEST,
            "RESPONSE": protocol.RESPONSE,
            "ERROR": protocol.ERROR,
            "PING": protocol.PING,
            "PONG": protocol.PONG,
            "PROGRESS": protocol.PROGRESS,
            "PARTIAL": protocol.PARTIAL,
        }
        assert documented == want
        assert set(documented.values()) == set(protocol._KINDS), (
            "every kind byte the decoder accepts must be documented"
        )

    def test_error_code_table_matches_constants(self, protocol_doc):
        rows = _table_rows(protocol_doc, "Code | Retryable")
        documented = {_code(row[0]): row[1].lower() == "yes" for row in rows}
        want_codes = {
            protocol.ERR_QUEUE_FULL,
            protocol.ERR_RATE_LIMITED,
            protocol.ERR_QUOTA,
            protocol.ERR_BAD_REQUEST,
            protocol.ERR_PROTOCOL,
            protocol.ERR_CLOSING,
            protocol.ERR_INTERNAL,
        }
        assert set(documented) == want_codes, (
            "every ERR_* constant must be documented (and nothing else)"
        )
        for code, retryable in documented.items():
            assert retryable == (code in protocol.RETRYABLE_CODES), (
                f"documented retryability of {code!r} contradicts "
                f"protocol.RETRYABLE_CODES"
            )

    def test_header_layout_matches_struct(self, protocol_doc):
        rows = _table_rows(protocol_doc, "Offset | Size")
        sizes = [int(row[1]) for row in rows]
        assert sum(sizes) == protocol.HEADER.size
        offsets = [int(row[0]) for row in rows]
        running = 0
        for offset, size in zip(offsets, sizes):
            assert offset == running, "documented offsets must be contiguous"
            running += size
        assert f"`{protocol.HEADER.format}`" in protocol_doc or (
            protocol.HEADER.format in protocol_doc
        ), "PROTOCOL.md must state the header struct format"

    def test_frame_ceiling_matches(self, protocol_doc):
        assert f"`{protocol.DEFAULT_MAX_FRAME_BYTES}`" in protocol_doc, (
            "PROTOCOL.md must state DEFAULT_MAX_FRAME_BYTES"
        )

    def test_dtype_whitelist_matches(self, protocol_doc):
        match = re.search(
            r"Wire dtype whitelist: (.+?)\.\n", protocol_doc, re.DOTALL
        )
        assert match, "PROTOCOL.md must list the wire dtype whitelist"
        documented = set(re.findall(r"`([^`]+)`", match.group(1)))
        assert documented == set(protocol.WIRE_DTYPES)

    def test_streaming_env_knob_is_referenced(self, protocol_doc):
        assert "REPRO_STREAM_CHUNK_ROWS" in protocol_doc


class TestArchitectureDoc:
    def test_layer_table_matches_lint_rule(self, architecture_doc):
        rows = _table_rows(architecture_doc, "Rank | Module prefixes")
        documented = {}
        for row in rows:
            rank = int(row[0])
            for prefix in re.findall(r"`([^`]+)`", row[1]):
                documented[prefix] = rank
        want = dict(LAYERS)
        assert documented == want, (
            "ARCHITECTURE.md layer table must equal "
            "repro.analysis.rules.layering.LAYERS"
        )

    def test_diagram_mentions_every_rank(self, architecture_doc):
        for rank in sorted({rank for _, rank in LAYERS}):
            assert re.search(
                rf"rank {rank}\b", architecture_doc
            ), f"layer diagram must show rank {rank}"

    def test_diagram_rows_name_the_table_prefixes(self, architecture_doc):
        """Each ``rank N`` row of the diagram names exactly the module
        prefixes the layer table puts at rank N."""
        section = architecture_doc.split("## Layer diagram", 1)[1]
        diagram = section.split("```")[1]
        rows = re.findall(r"^\s*rank (\d+)\s+(.*)$", diagram, flags=re.M)
        drawn = {
            int(rank): set(re.findall(r"\brepro(?:\.\w+)*", text))
            for rank, text in rows
        }
        want = {}
        for prefix, rank in LAYERS:
            want.setdefault(rank, set()).add(prefix)
        assert drawn == want


class TestDocsIndex:
    def test_index_links_every_doc(self):
        index = (DOCS / "README.md").read_text(encoding="utf-8")
        for name in ("ARCHITECTURE.md", "PROTOCOL.md", "KERNELS.md", "ENVIRONMENT.md"):
            assert (DOCS / name).exists(), f"docs/{name} is missing"
            assert f"]({name})" in index, f"docs/README.md must link {name}"

    def test_repo_readme_links_docs(self):
        readme = (DOCS.parent / "README.md").read_text(encoding="utf-8")
        for target in ("docs/PROTOCOL.md", "docs/ARCHITECTURE.md"):
            assert target in readme, f"README.md must reference {target}"


class TestReadmeBackends:
    """README's backend table and alias sentence track the registry, so
    adding or removing a backend without updating the docs fails here."""

    @pytest.fixture(scope="class")
    def readme(self):
        return (DOCS.parent / "README.md").read_text(encoding="utf-8")

    def test_backend_table_matches_registry(self, readme):
        rows = _table_rows(readme, "| backend | what it does |")
        assert sorted(_code(row[0]) for row in rows) == available_backends()

    def test_alias_sentence_matches_registry(self, readme):
        match = re.search(
            r"((?:`[^`]+`(?:, | and )?)+) are accepted aliases of "
            r"((?:`[^`]+`(?:, | and )?)+)",
            readme,
        )
        assert match, "README.md must name the backend aliases"
        aliases = re.findall(r"`([^`]+)`", match.group(1))
        targets = re.findall(r"`([^`]+)`", match.group(2))
        assert dict(zip(aliases, targets)) == backend_aliases()
        assert len(aliases) == len(targets)
