#include "ccap/estimate/srm.hpp"

#include <algorithm>
#include <stdexcept>

namespace ccap::estimate {

std::size_t SharedResourceMatrix::add_attribute(const std::string& name) {
    if (name.empty()) throw std::invalid_argument("SRM: empty attribute name");
    const auto it = std::find(attributes_.begin(), attributes_.end(), name);
    if (it != attributes_.end()) return static_cast<std::size_t>(it - attributes_.begin());
    attributes_.push_back(name);
    return attributes_.size() - 1;
}

void SharedResourceMatrix::add_operation(const std::string& name,
                                         const std::vector<std::string>& reads,
                                         const std::vector<std::string>& modifies) {
    if (name.empty()) throw std::invalid_argument("SRM: empty operation name");
    for (const Operation& op : operations_)
        if (op.name == name) throw std::invalid_argument("SRM: duplicate operation " + name);
    Operation op;
    op.name = name;
    for (const std::string& a : reads) op.reads.push_back(add_attribute(a));
    for (const std::string& a : modifies) op.modifies.push_back(add_attribute(a));
    operations_.push_back(std::move(op));
}

std::vector<std::vector<bool>> SharedResourceMatrix::flow_closure() const {
    const std::size_t n = attributes_.size();
    std::vector<std::vector<bool>> flow(n, std::vector<bool>(n, false));
    for (std::size_t a = 0; a < n; ++a) flow[a][a] = true;
    // Direct flows: an operation reading a and modifying b carries a -> b.
    for (const Operation& op : operations_)
        for (std::size_t a : op.reads)
            for (std::size_t b : op.modifies) flow[a][b] = true;
    // Warshall closure.
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < n; ++i) {
            if (!flow[i][k]) continue;
            for (std::size_t j = 0; j < n; ++j)
                if (flow[k][j]) flow[i][j] = true;
        }
    return flow;
}

std::vector<SharedResourceMatrix::Channel> SharedResourceMatrix::all_channels() const {
    const auto flow = flow_closure();
    std::vector<Channel> out;
    for (std::size_t a = 0; a < attributes_.size(); ++a) {
        for (const Operation& writer : operations_) {
            if (std::find(writer.modifies.begin(), writer.modifies.end(), a) ==
                writer.modifies.end())
                continue;
            for (const Operation& reader : operations_) {
                if (reader.name == writer.name) continue;
                // The reader senses `a` if it reads any attribute b that `a`
                // flows into (b == a is the direct case).
                bool direct = false, indirect = false;
                for (std::size_t b : reader.reads) {
                    if (b == a)
                        direct = true;
                    else if (flow[a][b])
                        indirect = true;
                }
                if (direct)
                    out.push_back({attributes_[a], writer.name, reader.name, false});
                else if (indirect)
                    out.push_back({attributes_[a], writer.name, reader.name, true});
            }
        }
    }
    return out;
}

}  // namespace ccap::estimate
