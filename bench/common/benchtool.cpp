#include "common/benchtool.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "set/profiler.hpp"

namespace neon::benchtool {

PairedMedians interleavedMedians(int reps, const std::function<double()>& a,
                                 const std::function<double()>& b)
{
    (void)a();
    (void)b();
    std::vector<double> ta;
    std::vector<double> tb;
    for (int i = 0; i < reps; ++i) {
        ta.push_back(a());
        tb.push_back(b());
    }
    auto median = [](std::vector<double>& v) {
        std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                         v.end());
        return v[v.size() / 2];
    };
    return {median(ta), median(tb)};
}

bool paperScale()
{
    const char* env = std::getenv("NEON_BENCH_PAPER");
    return env != nullptr && std::atoi(env) != 0;
}

std::string fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

void writeReportJson(set::Backend& backend, const std::string& name)
{
    const std::string path = "BENCH_" + name + "_report.json";
    std::ofstream     out(path);
    if (!out.good()) {
        std::cerr << "benchtool: cannot write " << path << "\n";
        return;
    }
    out << backend.profiler().report().toJson() << "\n";
    std::cout << "execution report written to " << path << "\n";
}

void Table::print() const
{
    std::vector<size_t> width(header.size(), 0);
    for (size_t c = 0; c < header.size(); ++c) {
        width[c] = header[c].size();
    }
    for (const auto& row : rows) {
        for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
            width[c] = std::max(width[c], row[c].size());
        }
    }
    auto printRow = [&](const std::vector<std::string>& row) {
        std::cout << "|";
        for (size_t c = 0; c < width.size(); ++c) {
            const std::string& cell = c < row.size() ? row[c] : "";
            std::cout << " " << std::setw(static_cast<int>(width[c])) << cell << " |";
        }
        std::cout << "\n";
    };
    std::cout << "\n== " << title << " ==\n";
    printRow(header);
    std::vector<std::string> sep;
    for (size_t c = 0; c < width.size(); ++c) {
        sep.push_back(std::string(width[c], '-'));
    }
    printRow(sep);
    for (const auto& row : rows) {
        printRow(row);
    }
    std::cout << std::endl;
}

}  // namespace neon::benchtool
