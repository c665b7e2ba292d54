// Robustness of the parsers: mutated / truncated / hostile inputs must
// throw cleanly (finehmm::Error or derived), never crash or hang.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bio/fasta.hpp"
#include "bio/seq_db_io.hpp"
#include "bio/synthetic.hpp"
#include "hmm/generator.hpp"
#include "hmm/hmm_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace finehmm;

std::string valid_hmm_text() {
  auto model = hmm::paper_model(12);
  std::ostringstream out;
  hmm::write_hmm(out, model);
  return out.str();
}

TEST(IoRobustness, TruncatedHmmAtEveryLineBoundary) {
  std::string text = valid_hmm_text();
  std::vector<std::size_t> cut_points;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') cut_points.push_back(i);
  int parsed = 0, threw = 0;
  for (std::size_t cut : cut_points) {
    std::istringstream in(text.substr(0, cut));
    try {
      hmm::read_hmm(in);
      ++parsed;
    } catch (const Error&) {
      ++threw;
    }
  }
  // Only the final '//' cut may still parse; everything shorter throws.
  EXPECT_GE(threw, static_cast<int>(cut_points.size()) - 1);
  EXPECT_LE(parsed, 1);
}

TEST(IoRobustness, MutatedHmmTokensNeverCrash) {
  std::string text = valid_hmm_text();
  Pcg32 rng(99);
  for (int rep = 0; rep < 200; ++rep) {
    std::string mutated = text;
    // Flip a few characters to hostile values.
    for (int m = 0; m < 5; ++m) {
      std::size_t pos = rng.below(static_cast<std::uint32_t>(mutated.size()));
      const char hostile[] = {'x', '*', '-', '\t', '9', '.', 'e'};
      mutated[pos] = hostile[rng.below(sizeof(hostile))];
    }
    std::istringstream in(mutated);
    try {
      auto model = hmm::read_hmm(in);
      // If it parsed, it must at least be structurally sane.
      EXPECT_GE(model.length(), 1);
    } catch (const Error&) {
      // fine: every hostile numeric surfaces as a finehmm error
    }
  }
}

TEST(IoRobustness, FastaWithHostileBytes) {
  const char* cases[] = {
      ">",
      ">\n",
      ">a\n\n\n",
      ">a\nACGT123\n",       // digits are invalid residues
      ">a desc\nAC DE\n",    // internal whitespace is skipped
      ">a\n>b\nAC\n",        // empty first record
  };
  for (const char* c : cases) {
    std::istringstream in(c);
    try {
      auto db = bio::read_fasta(in);
      for (const auto& s : db) EXPECT_FALSE(s.name.empty());
    } catch (const Error&) {
      // fine
    }
  }
}

TEST(IoRobustness, EmptyInputsGiveEmptyOrThrow) {
  {
    std::istringstream in("");
    auto db = bio::read_fasta(in);
    EXPECT_TRUE(db.empty());
  }
  {
    std::istringstream in("");
    EXPECT_THROW(hmm::read_hmm(in), Error);
  }
}

TEST(IoRobustness, TruncatedSeqDbFileThrowsForBothReaders) {
  Pcg32 rng(61);
  bio::SequenceDatabase db;
  for (int i = 0; i < 8; ++i)
    db.add(bio::random_sequence(30 + rng.below(40), rng,
                                "robust_" + std::to_string(i)));
  std::ostringstream out(std::ios::binary);
  bio::write_seq_db(out, db);
  const std::string bytes = out.str();
  const std::string path = "/tmp/finehmm_robust_trunc.fsqdb";

  // Cut at a spread of offsets: inside the header, the index, and the
  // residue words.  Both the eager reader and the zero-copy view must
  // throw a finehmm::Error that names what came up short, never crash.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                          bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 5, bytes.size() - 1}) {
    {
      std::ofstream f(path, std::ios::binary);
      f.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    EXPECT_THROW(bio::read_seq_db_file(path), Error) << "cut=" << cut;
    EXPECT_THROW(bio::MappedSeqDb m(path), Error) << "cut=" << cut;
    try {
      bio::MappedSeqDb m(path);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(IoRobustness, HmmWithWrongNodeCountThrows) {
  std::string text = valid_hmm_text();
  // Claim 13 nodes while providing 12.
  auto pos = text.find("LENG  12");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "LENG  13");
  std::istringstream in(text);
  EXPECT_THROW(hmm::read_hmm(in), Error);
}

// LENG is read before any node, so the reader must not trust it: values
// past Plan7Hmm::kMaxLength are refused before the model is sized (no
// int overflow at M + 1, no multi-GB allocation from a five-line file),
// and tokens that are not a whole int are a ParseError with the line.
TEST(IoRobustness, HostileLengIsRejectedBeforeAllocation) {
  struct Case {
    const char* leng;
    bool parse_error;
  };
  for (const Case& c : {Case{"2147483647", false}, Case{"300000000", false},
                        Case{"abc", true}, Case{"99999999999", true}}) {
    std::string text = valid_hmm_text();
    auto pos = text.find("LENG  12");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 8, std::string("LENG  ") + c.leng);
    std::istringstream in(text);
    try {
      hmm::read_hmm(in);
      ADD_FAILURE() << "LENG " << c.leng << " parsed";
    } catch (const ParseError& e) {
      EXPECT_TRUE(c.parse_error) << c.leng << ": " << e.what();
      EXPECT_GT(e.line(), 0u);
    } catch (const Error& e) {
      EXPECT_FALSE(c.parse_error) << c.leng << ": " << e.what();
    }
  }
}

TEST(IoRobustness, NodeIndexMustBeAWholeInteger) {
  std::string text = valid_hmm_text();
  auto pos = text.find("\n  1 ");  // node 1's match emission line
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\n  1x");
  std::istringstream in(text);
  EXPECT_THROW(hmm::read_hmm(in), ParseError);
}

}  // namespace
