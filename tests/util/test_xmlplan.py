"""Tests for the provisioning-planning XML persistence."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from repro.util.xmlplan import PlanningEntry, read_planning, write_planning


def make_entry(timestamp=1385896446.0, temperature=23.5, candidates=8, cost=0.6):
    return PlanningEntry(
        timestamp=timestamp,
        temperature=temperature,
        candidates=candidates,
        electricity_cost=cost,
    )


ENTRY = (
    "<provisioning_planning><timestamp value=\"{ts}\">"
    "<temperature>{temp}</temperature><candidates>{cand}</candidates>"
    "<electricity_cost>{cost}</electricity_cost></timestamp></provisioning_planning>"
)


class TestPlanningEntry:
    def test_round_trip_through_xml_element(self):
        entry = make_entry()
        element = entry.to_element()
        parsed = PlanningEntry.from_element(element)
        assert parsed == entry

    def test_element_matches_paper_format(self):
        element = make_entry().to_element()
        assert element.tag == "timestamp"
        assert element.attrib["value"]
        assert element.find("temperature") is not None
        assert element.find("candidates") is not None
        assert element.find("electricity_cost") is not None

    def test_from_element_rejects_wrong_tag(self):
        element = ET.Element("not_a_timestamp")
        with pytest.raises(ValueError):
            PlanningEntry.from_element(element)

    def test_from_element_rejects_missing_child(self):
        element = ET.Element("timestamp", {"value": "0"})
        ET.SubElement(element, "temperature").text = "20"
        with pytest.raises(ValueError):
            PlanningEntry.from_element(element)

    def test_entries_order_by_timestamp(self):
        early = make_entry(timestamp=10.0)
        late = make_entry(timestamp=20.0)
        assert early < late


class TestFileRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "plan.xml"
        entries = [make_entry(timestamp=t) for t in (30.0, 10.0, 20.0)]
        write_planning(path, entries)
        loaded = read_planning(path)
        assert [e.timestamp for e in loaded] == [10.0, 20.0, 30.0]

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "plan.xml"
        write_planning(path, [make_entry(timestamp=1.0)])
        write_planning(path, [make_entry(timestamp=2.0)])
        assert [e.timestamp for e in read_planning(path)] == [2.0]
        # The staging file is renamed over the target, never left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["plan.xml"]

    def test_empty_planning(self, tmp_path):
        path = tmp_path / "plan.xml"
        write_planning(path, [])
        assert read_planning(path) == ()

    def test_read_rejects_wrong_root(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<something/>", encoding="utf-8")
        with pytest.raises(ValueError):
            read_planning(path)

    @pytest.mark.parametrize(
        ("document", "field"),
        [
            (ENTRY.format(ts="0", temp="abc", cand="8", cost="0.6"), "temperature"),
            (ENTRY.format(ts="nan", temp="20", cand="8", cost="0.6"), "timestamp"),
            (ENTRY.format(ts="inf", temp="20", cand="8", cost="0.6"), "timestamp"),
            (ENTRY.format(ts="0", temp="20", cand="-3", cost="0.6"), "candidates"),
            (ENTRY.format(ts="0", temp="20", cand="2.5", cost="0.6"), "candidates"),
            (ENTRY.format(ts="0", temp="20", cand="8", cost="7"), "electricity_cost"),
            (ENTRY.format(ts="0", temp="20", cand="8", cost="-0.1"), "electricity_cost"),
            (ENTRY.format(ts="0", temp="20", cand="8", cost="0.6")[:-30], "well-formed"),
        ],
        ids=[
            "non-numeric-temperature",
            "nan-timestamp",
            "infinite-timestamp",
            "negative-candidates",
            "fractional-candidates",
            "cost-above-one",
            "cost-below-zero",
            "truncated-file",
        ],
    )
    def test_read_rejects_bad_input_naming_path_and_field(
        self, tmp_path, document, field
    ):
        path = tmp_path / "bad.xml"
        path.write_text(document, encoding="utf-8")
        with pytest.raises(ValueError, match=field) as excinfo:
            read_planning(path)
        assert str(path) in str(excinfo.value)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9),
                st.floats(min_value=-30, max_value=60),
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=0, max_value=1),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("plans") / "plan.xml"
        entries = [
            PlanningEntry(
                timestamp=ts, temperature=temp, candidates=cand, electricity_cost=cost
            )
            for ts, temp, cand, cost in rows
        ]
        write_planning(path, entries)
        loaded = read_planning(path)
        assert sorted(loaded) == sorted(entries)
