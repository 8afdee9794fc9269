// Unit tests for the JSON value / parser / writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/json.h"

namespace hios {
namespace {

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3.5).dump(), "-3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, ArrayAndObjectConstruction) {
  Json obj = Json::object();
  obj["name"] = "hios";
  obj["gpus"] = 4;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  obj["mixed"] = std::move(arr);
  EXPECT_EQ(obj.dump(), R"({"gpus":4,"mixed":[1,"two"],"name":"hios"})");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_TRUE(j.at("a").as_array()[2].at("b").as_bool());
  EXPECT_TRUE(j.at("c").is_null());
}

TEST(Json, RoundTripComplex) {
  const std::string text =
      R"({"schedule":{"gpus":[[{"id":0,"name":"conv"}],[{"id":1,"name":"pool"}]],"num_gpus":2}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(Json, PrettyPrintParses) {
  Json obj = Json::object();
  obj["x"] = 1;
  obj["y"] = Json::array();
  obj["y"].push_back(2);
  const std::string pretty = obj.dump(true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), obj);
}

TEST(Json, StringEscapes) {
  Json s(std::string("line\n\"quote\"\tback\\slash"));
  EXPECT_EQ(Json::parse(s.dump()), s);
}

TEST(Json, UnicodeEscapeParses) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("1e"), Error);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_object(), Error);
  EXPECT_THROW(j.as_string(), Error);
  EXPECT_THROW(Json(1).as_bool(), Error);
}

TEST(Json, AsIntInChecksIntegralityAndRange) {
  EXPECT_EQ(Json(7).as_int_in(0, 10, "x"), 7);
  EXPECT_EQ(Json(-3).as_int_in(-3, -3, "x"), -3);
  EXPECT_THROW(Json(11).as_int_in(0, 10, "x"), Error);
  EXPECT_THROW(Json(-1).as_int_in(0, 10, "x"), Error);
  EXPECT_THROW(Json(1.4).as_int_in(0, 10, "x"), Error);
  EXPECT_THROW(Json(int64_t{1} << 32).as_int_in(0, INT32_MAX, "x"), Error);
  EXPECT_THROW(Json(1e300).as_int_in(INT64_MIN, INT64_MAX, "x"), Error);
  EXPECT_THROW(Json(std::nan("")).as_int_in(INT64_MIN, INT64_MAX, "x"), Error);
  EXPECT_THROW(Json("3").as_int_in(0, 10, "x"), Error);
  try {
    Json(2.5).as_int_in(0, 10, "edge src");
    FAIL() << "a fractional value must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("edge src"), std::string::npos) << e.what();
  }
}

TEST(Json, MissingKeyThrows) {
  const Json j = Json::parse("{\"a\":1}");
  EXPECT_THROW(j.at("b"), Error);
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("b"));
}

TEST(Json, MutationCreatesContainers) {
  Json j;  // null
  j["k"] = 5;  // becomes object
  EXPECT_TRUE(j.is_object());
  Json a;
  a.push_back(1);  // becomes array
  EXPECT_TRUE(a.is_array());
}

TEST(Json, IntegersSerializedWithoutDecimal) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json::parse("7").as_int(), 7);
}

TEST(Json, WhitespaceTolerant) {
  const Json j = Json::parse("  {\n\t\"a\" :  [ 1 , 2 ]  }  ");
  EXPECT_EQ(j.at("a").size(), 2u);
}

}  // namespace
}  // namespace hios
