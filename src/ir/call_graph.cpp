#include "ir/call_graph.hpp"

#include <iterator>
#include <utility>

namespace stats::ir {

CallGraph::CallGraph(const Module &module) : _module(module)
{
    for (const auto &meta : module.tradeoffs)
        _placeholders.insert(meta.placeholder);

    for (const auto &fn : module.functions) {
        auto &edges = _callees[fn.name];
        bool direct = false;
        for (const auto &block : fn.blocks) {
            for (const auto &inst : block.instructions) {
                if (inst.op != Opcode::Call)
                    continue;
                if (_placeholders.count(inst.callee))
                    direct = true;
                if (module.findFunction(inst.callee))
                    edges.insert(inst.callee);
            }
        }
        _directTradeoff[fn.name] = direct;
    }

    // Iterative DFS: bottom-up (postorder) order, plus the set of
    // functions on any call cycle.
    std::map<std::string, int> color; // 0 white, 1 grey, 2 black.
    for (const auto &fn : module.functions) {
        if (color[fn.name] != 0)
            continue;
        std::vector<std::pair<std::string, std::size_t>> stack;
        stack.emplace_back(fn.name, 0);
        color[fn.name] = 1;
        while (!stack.empty()) {
            auto &[name, next] = stack.back();
            const auto &edges = callees(name);
            if (next < edges.size()) {
                auto it = edges.begin();
                std::advance(it, long(next));
                ++next;
                const std::string &callee = *it;
                if (color[callee] == 0) {
                    color[callee] = 1;
                    stack.emplace_back(callee, 0);
                } else if (color[callee] == 1) {
                    // Back edge: everything from the callee's stack
                    // position upward is on a cycle.
                    bool seen = false;
                    for (const auto &frame : stack) {
                        seen = seen || frame.first == callee;
                        if (seen)
                            _recursive.insert(frame.first);
                    }
                }
            } else {
                color[name] = 2;
                _bottomUp.push_back(name);
                stack.pop_back();
            }
        }
    }
}

const std::set<std::string> &
CallGraph::callees(const std::string &fn) const
{
    static const std::set<std::string> empty;
    auto it = _callees.find(fn);
    return it == _callees.end() ? empty : it->second;
}

std::set<std::string>
CallGraph::reachableFrom(const std::string &fn) const
{
    std::set<std::string> visited;
    std::vector<std::string> stack{fn};
    while (!stack.empty()) {
        const std::string current = stack.back();
        stack.pop_back();
        if (!visited.insert(current).second)
            continue;
        for (const auto &callee : callees(current))
            stack.push_back(callee);
    }
    return visited;
}

std::set<std::string>
CallGraph::tradeoffCarriers() const
{
    // Bottom-up fixed point: a function carries a tradeoff if it has
    // a direct placeholder call or calls a carrier.
    std::set<std::string> carriers;
    for (const auto &[fn, direct] : _directTradeoff) {
        if (direct)
            carriers.insert(fn);
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &[fn, edges] : _callees) {
            if (carriers.count(fn))
                continue;
            for (const auto &callee : edges) {
                if (carriers.count(callee)) {
                    carriers.insert(fn);
                    changed = true;
                    break;
                }
            }
        }
    }
    return carriers;
}

bool
CallGraph::hasDirectTradeoff(const std::string &fn) const
{
    auto it = _directTradeoff.find(fn);
    return it != _directTradeoff.end() && it->second;
}

} // namespace stats::ir
