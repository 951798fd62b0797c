//===- tests/report_test.cpp - JSON writer and report export tests ----------===//

#include "core/ReportWriter.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include "testing/TestGraphs.h"

using namespace sgpu;
using namespace sgpu::testing;

namespace {

/// Crude structural validity: balanced braces/brackets outside strings.
bool balancedJson(const std::string &S) {
  int Depth = 0;
  bool InString = false;
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      if (--Depth < 0)
        return false;
    }
  }
  return Depth == 0 && !InString;
}

} // namespace

TEST(JsonWriter, ObjectsArraysAndValues) {
  JsonWriter W;
  W.beginObject();
  W.writeString("name", "swp");
  W.writeInt("ii", 42);
  W.writeDouble("relax", 0.5);
  W.writeBool("ilp", true);
  W.beginArray("xs");
  W.writeInt(1);
  W.writeInt(2);
  W.endArray();
  W.beginObject("nested");
  W.endObject();
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"name\":\"swp\",\"ii\":42,\"relax\":0.5,\"ilp\":true,"
            "\"xs\":[1,2],\"nested\":{}}");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  JsonWriter W;
  W.beginObject();
  W.writeString("s", "a\"b\\c\nd\te");
  W.endObject();
  EXPECT_EQ(W.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter W;
  W.beginArray();
  W.endArray();
  EXPECT_EQ(W.str(), "[]");
}

TEST(ReportWriter, SerializesCompileReport) {
  StreamGraph G = makeFig4Graph();
  CompileOptions Options;
  Options.Sched.Pmax = 4;
  auto R = compileForGpu(G, Options);
  ASSERT_TRUE(R.has_value());

  std::string Json = reportToJson(G, *R);
  EXPECT_TRUE(balancedJson(Json)) << Json;
  EXPECT_NE(Json.find("\"strategy\":\"SWP\""), std::string::npos);
  EXPECT_NE(Json.find("\"final_ii\":"), std::string::npos);
  EXPECT_NE(Json.find("\"instances\":["), std::string::npos);
  EXPECT_NE(Json.find("\"speedup\":"), std::string::npos);
  EXPECT_NE(Json.find("\"A#0\""), std::string::npos)
      << "instance node names present";
  // One instance object per scheduled instance.
  size_t Count = 0;
  for (size_t P = Json.find("\"k\":"); P != std::string::npos;
       P = Json.find("\"k\":", P + 1))
    ++Count;
  EXPECT_EQ(Count, R->Schedule.Instances.size());
}
