// Study-service request lines under hostile edits: a seeded mutation
// fuzzer whose inputs must each be rejected with a std::invalid_argument
// naming the request (parse_request_line) or its line (read_requests), or
// parse into requests that a renderer writes back and that parse again as
// equal requests.

#include <algorithm>
#include <cstddef>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/request.h"

namespace {

using namespace flit;
using serve::StudyRequest;

bool same_request(const StudyRequest& a, const StudyRequest& b) {
  return a.id == b.id && a.tenant == b.tenant && a.test == b.test &&
         a.mode == b.mode && a.compilers == b.compilers &&
         a.limit == b.limit;
}

bool same_requests(const std::vector<StudyRequest>& a,
                   const std::vector<StudyRequest>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_request);
}

/// A JSON string the parser reads back as `s`: it knows the escapes \"
/// \\ \n \t and takes every other byte as written.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out + '"';
}

/// One request line with every key.
std::string render(const StudyRequest& r) {
  std::string out = "{\"id\":" + quoted(r.id) + ",\"tenant\":" +
                    quoted(r.tenant) + ",\"test\":" + quoted(r.test) +
                    ",\"mode\":\"" + serve::to_string(r.mode) +
                    "\",\"compilers\":[";
  for (std::size_t i = 0; i < r.compilers.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(r.compilers[i]);
  }
  return out + "],\"limit\":" + std::to_string(r.limit) + "}";
}

/// Whether `what` starts "line N: " for a 1-based N.
bool names_a_line(const std::string& what) {
  if (!what.starts_with("line ")) return false;
  std::size_t i = 5;
  while (i < what.size() && what[i] >= '0' && what[i] <= '9') ++i;
  return i > 5 && what[5] != '0' && what.compare(i, 2, ": ") == 0;
}

/// One random edit: a byte flip, an inserted raw control byte, an
/// inserted or deleted quote, backslash, comma, brace or digit, a
/// duplicated key, or a truncation.
void mutate(std::string* bytes, std::mt19937_64* rng) {
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>((*rng)() % n);
  };
  static constexpr char kTokens[] = {'"', '\\', ',', '{', '}', '[',
                                     ']', ':',  '0', '1', '9'};
  switch ((*rng)() % 6) {
    case 0:
      if (!bytes->empty()) {
        (*bytes)[below(bytes->size())] ^=
            static_cast<char>(1 + (*rng)() % 255);
      }
      break;
    case 1: {
      const std::size_t c = below(33);  // 0x00-0x1f or 0x7f
      bytes->insert(below(bytes->size() + 1), 1,
                    static_cast<char>(c == 32 ? 0x7f : c));
      break;
    }
    case 2:
      bytes->insert(below(bytes->size() + 1), 1,
                    kTokens[below(sizeof kTokens)]);
      break;
    case 3: {
      const char c = kTokens[below(sizeof kTokens)];
      std::vector<std::size_t> at;
      for (std::size_t i = 0; i < bytes->size(); ++i) {
        if ((*bytes)[i] == c) at.push_back(i);
      }
      if (!at.empty()) bytes->erase(at[below(at.size())], 1);
      break;
    }
    case 4: {
      // Copies one `"key":value,` member in front of another.
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < bytes->size(); ++i) {
        const char c = (*bytes)[i];
        if ((c == '{' || c == ',') && i + 1 < bytes->size() &&
            (*bytes)[i + 1] == '"') {
          starts.push_back(i + 1);
        }
      }
      if (starts.empty()) break;
      const std::size_t from = starts[below(starts.size())];
      std::size_t end = bytes->find(',', from);
      if (end == std::string::npos) end = bytes->find('}', from);
      if (end == std::string::npos) break;
      const std::string member = bytes->substr(from, end - from) + ',';
      bytes->insert(starts[below(starts.size())], member);
      break;
    }
    default:
      bytes->resize(below(bytes->size() + 1));
  }
}

TEST(RequestFuzz, MutatedLinesAreRejectedOrRoundTrip) {
  const std::vector<std::string> seeds = {
      R"({"id":"r1","tenant":"alice","test":"MFEM_ex3"})",
      R"({"id":"r2","test":"Laghos","mode":"workflow",)"
      R"("compilers":["g++","icpc"],"limit":12})",
      R"({ "id" : "a.b-c_9" , "test" : "x\"y\\z\n\t\/w" ,)"
      R"( "compilers" : [ ] , "limit" : 0 , "mode" : "explore" })",
  };

  // A fixed budget of inputs, so the suite's time and verdict never move.
  constexpr int kInputs = 6000;
  std::mt19937_64 rng(20190624);
  int rejected = 0;
  int round_tripped = 0;
  for (int input = 0; input < kInputs; ++input) {
    std::string line = seeds[rng() % seeds.size()];
    for (int edits = 1 + static_cast<int>(rng() % 2); edits > 0; --edits) {
      mutate(&line, &rng);
    }

    // One line through parse_request_line.
    StudyRequest req;
    bool parsed = true;
    try {
      req = serve::parse_request_line(line);
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("request: "))
          << "input " << input << ": " << e.what();
      parsed = false;
    }
    if (parsed) {
      try {
        EXPECT_TRUE(
            same_request(serve::parse_request_line(render(req)), req))
            << "input " << input << " does not round-trip: " << line;
      } catch (const std::invalid_argument& e) {
        ADD_FAILURE() << "input " << input << ": its rendering "
                      << render(req) << " is rejected: " << e.what();
      }
    }

    // The same bytes as the second line of a stream (a raw newline the
    // edits inserted splits them further).
    std::istringstream stream(R"({"id":"r0","test":"MFEM_ex1"})" "\n" +
                              line + "\n");
    std::vector<StudyRequest> reqs;
    try {
      reqs = serve::read_requests(stream);
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(names_a_line(e.what()))
          << "input " << input << ": " << e.what();
      ++rejected;
      continue;
    }
    std::string again;
    for (const StudyRequest& r : reqs) again += render(r) + '\n';
    std::istringstream rendered(again);
    try {
      EXPECT_TRUE(same_requests(serve::read_requests(rendered), reqs))
          << "input " << input << " does not round-trip: " << line;
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "input " << input << ": its rendering is rejected: "
                    << e.what();
    }
    ++round_tripped;
  }
  // Both verdicts are exercised, or the mutations are too weak or too
  // strong to test anything.
  EXPECT_GT(rejected, kInputs / 10);
  EXPECT_GT(round_tripped, kInputs / 10);
}

}  // namespace
