// Trace::chromeTrace() must emit valid Chrome trace-event JSON: a single
// object with a traceEvents array whose "X" events carry numeric ts/dur and
// are monotonically ordered per (pid, tid) lane — the invariants
// chrome://tracing and Perfetto rely on. Verified with a minimal JSON
// parser (no external dependency).

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "set/backend.hpp"
#include "sys/event.hpp"
#include "sys/stream.hpp"
#include "sys/trace.hpp"
#include "enqueue_kernel.hpp"

namespace neon::sys {
namespace {

// --- a deliberately small JSON parser (objects, arrays, strings, numbers,
// literals) — enough to validate the exporter without pulling a library ----

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue
{
    std::variant<std::nullptr_t, bool, double, std::string, std::shared_ptr<JsonObject>,
                 std::shared_ptr<JsonArray>>
        v = nullptr;

    [[nodiscard]] bool isObject() const { return v.index() == 4; }
    [[nodiscard]] bool isArray() const { return v.index() == 5; }
    [[nodiscard]] const JsonObject& object() const { return *std::get<4>(v); }
    [[nodiscard]] const JsonArray&  array() const { return *std::get<5>(v); }
    [[nodiscard]] double            number() const { return std::get<double>(v); }
    [[nodiscard]] const std::string& str() const { return std::get<std::string>(v); }
};

class JsonParser
{
   public:
    explicit JsonParser(const std::string& text) : mText(text) {}

    JsonValue parse()
    {
        JsonValue v = value();
        skipWs();
        if (mPos != mText.size()) {
            fail("trailing garbage");
        }
        return v;
    }

    [[nodiscard]] const std::string& error() const { return mError; }
    [[nodiscard]] bool               ok() const { return mError.empty(); }

   private:
    const std::string& mText;
    size_t             mPos = 0;
    std::string        mError;

    void fail(const std::string& what)
    {
        if (mError.empty()) {
            mError = what + " at offset " + std::to_string(mPos);
        }
        throw std::runtime_error(mError);
    }
    void skipWs()
    {
        while (mPos < mText.size() && std::isspace(static_cast<unsigned char>(mText[mPos]))) {
            ++mPos;
        }
    }
    char peek()
    {
        if (mPos >= mText.size()) {
            fail("unexpected end");
        }
        return mText[mPos];
    }
    void expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++mPos;
    }

    JsonValue value()
    {
        skipWs();
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"': return JsonValue{string()};
            case 't': literal("true"); return JsonValue{true};
            case 'f': literal("false"); return JsonValue{false};
            case 'n': literal("null"); return JsonValue{nullptr};
            default: return JsonValue{number()};
        }
    }
    void literal(const char* lit)
    {
        for (const char* p = lit; *p != '\0'; ++p) {
            if (mPos >= mText.size() || mText[mPos] != *p) {
                fail(std::string("bad literal, expected ") + lit);
            }
            ++mPos;
        }
    }
    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (mPos >= mText.size()) {
                fail("unterminated string");
            }
            char c = mText[mPos++];
            if (c == '"') {
                break;
            }
            if (c == '\\') {
                if (mPos >= mText.size()) {
                    fail("bad escape");
                }
                char e = mText[mPos++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u':
                        if (mPos + 4 > mText.size()) {
                            fail("bad \\u escape");
                        }
                        out += '?';  // validated, not decoded
                        mPos += 4;
                        break;
                    default: fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }
    double number()
    {
        size_t end = mPos;
        while (end < mText.size() &&
               (std::isdigit(static_cast<unsigned char>(mText[end])) || mText[end] == '-' ||
                mText[end] == '+' || mText[end] == '.' || mText[end] == 'e' ||
                mText[end] == 'E')) {
            ++end;
        }
        if (end == mPos) {
            fail("expected number");
        }
        size_t       used = 0;
        const double d = std::stod(mText.substr(mPos, end - mPos), &used);
        if (used != end - mPos) {
            fail("bad number");
        }
        mPos = end;
        return d;
    }
    JsonValue object()
    {
        expect('{');
        auto obj = std::make_shared<JsonObject>();
        skipWs();
        if (peek() == '}') {
            ++mPos;
            return JsonValue{obj};
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            (*obj)[key] = value();
            skipWs();
            if (peek() == ',') {
                ++mPos;
                continue;
            }
            expect('}');
            break;
        }
        return JsonValue{obj};
    }
    JsonValue array()
    {
        expect('[');
        auto arr = std::make_shared<JsonArray>();
        skipWs();
        if (peek() == ']') {
            ++mPos;
            return JsonValue{arr};
        }
        while (true) {
            arr->push_back(value());
            skipWs();
            if (peek() == ',') {
                ++mPos;
                continue;
            }
            expect(']');
            break;
        }
        return JsonValue{arr};
    }
};

/// Record a small two-device timeline with kernels, a transfer and a
/// cross-stream wait, and return the parsed chrome trace.
JsonValue recordedChromeTrace(std::string* rawOut = nullptr)
{
    set::Backend b = set::Backend::make({.nDevices = 2,
                                         .deviceType = sys::DeviceType::CPU,
                                         .config = sys::SimConfig::dgxA100Like()});
    auto         profiler = b.profiler();
    profiler.enable(true);

    enqueueKernel(b.stream(0, 0), "produce", 1'000'000, {100.0, 0.0}, [] {});
    Event ev;
    b.stream(0, 0).record(ev);
    b.stream(1, 0).wait(ev);

    const std::vector<TransferChunk> chunks = {{1 << 20, 1}};
    b.stream(1, 0).transfer({"halo", chunks, {}});
    enqueueKernel(b.stream(1, 0), "consume", 1'000'000, {100.0, 0.0}, [] {});
    b.sync();
    profiler.enable(false);

    const std::string raw = profiler.chromeTrace();
    if (rawOut != nullptr) {
        *rawOut = raw;
    }
    JsonParser parser(raw);
    return parser.parse();
}

TEST(ChromeTrace, ParsesAsJsonWithTraceEvents)
{
    const JsonValue root = recordedChromeTrace();
    ASSERT_TRUE(root.isObject());
    ASSERT_TRUE(root.object().count("traceEvents"));
    const auto& events = root.object().at("traceEvents").array();
    EXPECT_GT(events.size(), 0u);
    int durationEvents = 0;
    for (const auto& e : events) {
        ASSERT_TRUE(e.isObject());
        const auto& obj = e.object();
        ASSERT_TRUE(obj.count("ph"));
        const std::string ph = obj.at("ph").str();
        if (ph == "X") {
            ++durationEvents;
            ASSERT_TRUE(obj.count("name"));
            ASSERT_TRUE(obj.count("pid"));
            ASSERT_TRUE(obj.count("tid"));
            EXPECT_GE(obj.at("ts").number(), 0.0);
            EXPECT_GE(obj.at("dur").number(), 0.0);
        }
    }
    // kernels on both devices plus the transfer chunk
    EXPECT_GE(durationEvents, 3);
}

TEST(ChromeTrace, TimestampsAreMonotonePerLane)
{
    const JsonValue root = recordedChromeTrace();
    const auto&     events = root.object().at("traceEvents").array();
    std::map<std::pair<double, double>, double> lastEnd;
    for (const auto& e : events) {
        const auto& obj = e.object();
        if (obj.at("ph").str() != "X") {
            continue;
        }
        const auto lane =
            std::make_pair(obj.at("pid").number(), obj.at("tid").number());
        const double ts = obj.at("ts").number();
        auto         it = lastEnd.find(lane);
        if (it != lastEnd.end()) {
            // Lanes serialize: each op starts at or after the lane's last start.
            EXPECT_GE(ts, it->second - 1e-9);
        }
        lastEnd[lane] = ts;
    }
}

TEST(ChromeTrace, EmitsMetadataAndFlowForWaits)
{
    std::string raw;
    recordedChromeTrace(&raw);
    // Thread/process naming metadata and the wait's flow arrow endpoints.
    EXPECT_NE(raw.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(raw.find("process_name"), std::string::npos);
    EXPECT_NE(raw.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(raw.find("\"ph\":\"f\""), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceIsStillValidJson)
{
    Trace             t;
    const std::string raw = t.chromeTrace();
    JsonParser        parser(raw);
    const JsonValue   root = parser.parse();
    ASSERT_TRUE(root.isObject());
    EXPECT_TRUE(root.object().at("traceEvents").array().empty());
}

}  // namespace
}  // namespace neon::sys
