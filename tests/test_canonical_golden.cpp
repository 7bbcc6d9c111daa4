// Golden canonical forms: every tree of the seeded corpus
// (tests/canonical_corpus.h) must reproduce, digit for digit, the
// digests recorded in tests/fixtures/canonical_golden.txt — input stats
// and hashes, canonical hashes, the full canonical arena and the module
// decomposition.  The fixture was captured from the recursive reference
// implementation, so a match proves the flat canonicalization neutral:
// identical canonical trees mean identical tree keys, module keys, BDD
// variable orders and probabilities downstream.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "canonical_corpus.h"

#ifndef ASILKIT_SOURCE_DIR
#error "ASILKIT_SOURCE_DIR must point at the repository root"
#endif

namespace asilkit::testing {
namespace {

std::vector<std::string> fixture_lines() {
    std::ifstream in(std::string(ASILKIT_SOURCE_DIR) + "/tests/fixtures/canonical_golden.txt");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line.front() != '#') lines.push_back(line);
    }
    return lines;
}

TEST(CanonicalGolden, CorpusMatchesFixture) {
    const std::vector<std::string> expected = fixture_lines();
    const std::vector<CorpusTree> corpus = canonical_corpus();
    ASSERT_EQ(corpus.size(), expected.size()) << "fixture and corpus disagree on size";
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const std::string actual = canonical_digest_line(corpus[i]);
        if (actual == expected[i]) continue;
        if (++mismatches <= 20) ADD_FAILURE() << "expected " << expected[i] << "\n  actual " << actual;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << corpus.size() << " corpus trees";
}

TEST(CanonicalGolden, CanonicalizeHashesMatchTheTree) {
    // canonicalize() folds both hashes up during the rebuild; they must
    // be the hashes the canonical tree itself reports.
    for (const CorpusTree& c : canonical_corpus()) {
        const ftree::CanonicalTree canon = ftree::canonicalize(c.tree);
        ASSERT_EQ(canon.structural_hash, canon.tree.structural_hash()) << c.label;
        ASSERT_EQ(canon.shape_hash, canon.tree.shape_hash()) << c.label;
    }
}

}  // namespace
}  // namespace asilkit::testing
