// Protocol text serialization: round trips and error reporting.

#include <gtest/gtest.h>

#include "core/debug.h"
#include "core/protocol_io.h"
#include "presburger/atom_protocols.h"
#include "presburger/compiler.h"
#include "protocols/counting.h"
#include "protocols/division.h"
#include "protocols/leader_election.h"

namespace popproto {
namespace {

void expect_equivalent(const TabulatedProtocol& a, const TabulatedProtocol& b) {
    ASSERT_EQ(a.num_states(), b.num_states());
    ASSERT_EQ(a.num_input_symbols(), b.num_input_symbols());
    ASSERT_EQ(a.num_output_symbols(), b.num_output_symbols());
    for (Symbol x = 0; x < a.num_input_symbols(); ++x) {
        EXPECT_EQ(a.initial_state(x), b.initial_state(x));
        EXPECT_EQ(a.input_name(x), b.input_name(x));
    }
    for (State q = 0; q < a.num_states(); ++q) {
        EXPECT_EQ(a.output_fast(q), b.output_fast(q));
        EXPECT_EQ(a.state_name(q), b.state_name(q));
    }
    for (State p = 0; p < a.num_states(); ++p)
        for (State q = 0; q < a.num_states(); ++q)
            EXPECT_EQ(a.apply_fast(p, q), b.apply_fast(p, q));
}

TEST(ProtocolIo, RoundTripsLibraryProtocols) {
    const auto counting = make_counting_protocol(5);
    expect_equivalent(*counting, *deserialize_protocol(serialize_protocol(*counting)));

    const auto leader = make_leader_election_protocol();
    expect_equivalent(*leader, *deserialize_protocol(serialize_protocol(*leader)));

    const auto division = make_division_protocol(3);
    expect_equivalent(*division, *deserialize_protocol(serialize_protocol(*division)));

    const auto majority = make_threshold_protocol({1, -1}, 0);
    expect_equivalent(*majority, *deserialize_protocol(serialize_protocol(*majority)));
}

TEST(ProtocolIo, RoundTripsACompiledProtocol) {
    const auto compiled = compile_formula(Formula::congruence({1, -2}, 0, 3));
    expect_equivalent(*compiled, *deserialize_protocol(serialize_protocol(*compiled)));
}

TEST(ProtocolIo, AcceptsCommentsAndDefaults) {
    const std::string text =
        "# a hand-written protocol\n"
        "popproto-protocol 1\n"
        "sizes 2 1 2\n"
        "input 0 1 start\n"
        "out 1 1\n"
        "delta 1 1 1 0\n"
        "end\n";
    const auto protocol = deserialize_protocol(text);
    EXPECT_EQ(protocol->num_states(), 2u);
    EXPECT_EQ(protocol->initial_state(0), 1u);
    EXPECT_EQ(protocol->output(1), 1u);
    EXPECT_EQ(protocol->apply(1, 1), (StatePair{1, 0}));
    EXPECT_EQ(protocol->apply(0, 1), (StatePair{0, 1}));  // implicit null
    EXPECT_EQ(protocol->input_name(0), "start");
    EXPECT_EQ(protocol->output_name(0), "y0");  // defaulted
}

TEST(ProtocolIo, HeaderIsCommentTolerantButMandatory) {
    EXPECT_THROW(deserialize_protocol("sizes 2 1 2\nend\n"), std::invalid_argument);
    EXPECT_THROW(deserialize_protocol("popproto-protocol 2\nsizes 2 1 2\nend\n"),
                 std::invalid_argument);
}

TEST(ProtocolIo, ReportsMalformedDirectives) {
    const std::string header = "popproto-protocol 1\nsizes 2 1 2\n";
    EXPECT_THROW(deserialize_protocol(header + "delta 9 0 0 0\nend\n"), std::invalid_argument);
    EXPECT_THROW(deserialize_protocol(header + "out 0 7\nend\n"), std::invalid_argument);
    EXPECT_THROW(deserialize_protocol(header + "input 0 9 x\nend\n"), std::invalid_argument);
    EXPECT_THROW(deserialize_protocol(header + "mystery 1\nend\n"), std::invalid_argument);
    EXPECT_THROW(deserialize_protocol(header + "out 0 0\n"), std::invalid_argument);  // no end
    EXPECT_THROW(deserialize_protocol("popproto-protocol 1\nout 0 0\nend\n"),
                 std::invalid_argument);  // directive before sizes
}

TEST(ProtocolIo, SerializedFormHasOnlyNonNullDeltas) {
    const auto leader = make_leader_election_protocol();
    const std::string text = serialize_protocol(*leader);
    // Exactly one non-null transition: (L, L) -> (L, F).
    std::size_t deltas = 0;
    std::size_t position = 0;
    while ((position = text.find("delta ", position)) != std::string::npos) {
        ++deltas;
        ++position;
    }
    EXPECT_EQ(deltas, 1u);
}

TEST(Debug, DescribeProtocolListsTransitions) {
    const auto protocol = make_counting_protocol(2);
    const std::string text = describe_protocol(*protocol);
    EXPECT_NE(text.find("states (3)"), std::string::npos);
    EXPECT_NE(text.find("(q1, q1) -> (q2, q2)"), std::string::npos);
    EXPECT_NE(text.find("inputs  (2)"), std::string::npos);
}

TEST(Debug, DotExportIsWellFormed) {
    const auto protocol = make_counting_protocol(2);
    const std::string dot = protocol_to_dot(*protocol);
    EXPECT_EQ(dot.rfind("digraph protocol {", 0), 0u);
    EXPECT_NE(dot.find("q1 -> q2"), std::string::npos);
    EXPECT_NE(dot.find("}\n"), std::string::npos);
}

}  // namespace
}  // namespace popproto
