/**
 * @file
 * The State Dependence Interface (SDI) — paper Figure 9.
 *
 * This is the public, paper-faithful API: developers encode the code
 * pattern of Figure 4 by creating Input/State/Output classes and
 * instantiating a `StateDependence` with the inputs, the initial
 * state, and `computeOutput`. `start()` begins the execution model of
 * section 3.1 in parallel with the invoking thread; `join()` waits
 * until all inputs have been correctly processed.
 *
 * Beyond the constructor/start/join of Figure 9, the class exposes
 * the hooks the STATS toolchain uses: installing the auxiliary code
 * produced by the middle-end, the state comparison, and the
 * configuration chosen by the autotuner. Without an auxiliary-code
 * installation the dependence is satisfied conventionally, which is
 * the paper's baseline ("we set all tradeoffs to their default value
 * and satisfy all state dependences conventionally").
 *
 * Threads: every dependence started with `n` threads runs on
 * `threading::ThreadPool::shared(n)`, one process-lifetime pool per
 * thread count — the paper's "efficient thread pool implementation
 * (shared with all state dependences) to minimize thread creation
 * overhead" (section 3.4). The first start() with a given count
 * creates that pool; later runs, back to back or concurrent, reuse
 * its workers. Each run gets its own executor (commit lane, record
 * freelist, pending count), so concurrent dependences share workers
 * but never wait on each other's tasks. join() must be called from
 * a thread outside that pool: a join from one of its workers
 * panics instead of risking a deadlock (a worker blocked in join
 * holds a thread the run may need).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "exec/thread_executor.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"

namespace stats::sdi {

/**
 * Paper Figure 9's `StateDependence<Input, State, Output>`.
 *
 * State must be copy-constructible and copy-assignable (the paper
 * requires developers to provide `operator=` so the runtime can clone
 * the state to privatize it per thread).
 */
template <class Input, class State, class Output>
class StateDependence
{
  public:
    using ComputeOutputFn = std::function<Output *(Input *, State *)>;
    using Engine = SpecEngine<Input *, State, Output>;

    /**
     * Read-only view of the outputs, in input order, as `Output *`
     * (the engine owns them). Iteration, size() and operator[] read
     * the engine's vector in place: nothing is copied at join().
     */
    class OutputView
    {
        using Slots = std::vector<std::unique_ptr<Output>>;

      public:
        class iterator
        {
          public:
            using iterator_category = std::input_iterator_tag;
            using value_type = Output *;
            using difference_type = std::ptrdiff_t;
            using pointer = void;
            using reference = Output *;

            iterator() = default;
            explicit iterator(typename Slots::const_iterator at)
                : _at(at)
            {
            }
            Output *operator*() const { return _at->get(); }
            iterator &
            operator++()
            {
                ++_at;
                return *this;
            }
            iterator
            operator++(int)
            {
                iterator before = *this;
                ++_at;
                return before;
            }
            bool
            operator==(const iterator &other) const
            {
                return _at == other._at;
            }
            bool
            operator!=(const iterator &other) const
            {
                return _at != other._at;
            }

          private:
            typename Slots::const_iterator _at;
        };

        explicit OutputView(const Slots *slots) : _slots(slots) {}

        std::size_t size() const { return _slots ? _slots->size() : 0; }

        Output *
        operator[](std::size_t i) const
        {
            return (*_slots)[i].get();
        }

        iterator
        begin() const
        {
            return _slots ? iterator(_slots->begin()) : iterator();
        }

        iterator
        end() const
        {
            return _slots ? iterator(_slots->end()) : iterator();
        }

      private:
        const Slots *_slots;
    };

    /**
     * @param inputs        ordered inputs; the number of inputs must
     *                      be known before the first invocation
     *                      (this is why the paper excludes canneal)
     * @param initial_state state consumed by the first invocation
     * @param compute_output the target of the state dependence
     */
    StateDependence(std::vector<Input *> *inputs, State *initial_state,
                    ComputeOutputFn compute_output)
        : _inputs(inputs), _initialState(initial_state),
          _computeOutput(std::move(compute_output))
    {
        if (!_inputs || !_initialState || !_computeOutput)
            support::panic("StateDependence: null constructor argument");
    }

    /**
     * Install the auxiliary code for this dependence (generated by
     * the middle-end compiler from a clone of computeOutput). Must be
     * called before start() to enable speculation.
     */
    void
    setAuxiliaryCode(ComputeOutputFn auxiliary)
    {
        _auxiliaryOutput = std::move(auxiliary);
    }

    /** Install the engine-level state comparison. */
    void
    setMatcher(typename Engine::MatchFn matcher)
    {
        _matcher = std::move(matcher);
    }

    /**
     * Use the State's own paper-style boolean
     * `doesSpecStateMatchAny(set<State*>)` method.
     */
    void
    useStateMatchMethod()
    {
        _matcher = fromBoolMethod<State>();
    }

    /** Set the configuration chosen by the autotuner. */
    void setConfig(const SpecConfig &config) { _config = config; }

    /** Size of the shared pool start() runs on (default: 4). */
    void setThreads(int threads) { _threads = std::max(1, threads); }

    /** Begin the execution model in parallel with the caller. */
    void
    start()
    {
        _joined = false;
        _executor = std::make_unique<exec::ThreadExecutor>(
            threading::ThreadPool::shared(_threads));
        auto wrap = [](const ComputeOutputFn &fn) {
            return [fn](Input *const &input, State &state,
                         const ComputeContext &) ->
                typename Engine::Invocation {
                    std::unique_ptr<Output> out(fn(input, &state));
                    // Real-thread execution: wall time is the cost.
                    return {std::move(out), exec::Work{0.0, 0.0}};
                };
        };
        typename Engine::ComputeFn aux;
        if (_auxiliaryOutput)
            aux = wrap(_auxiliaryOutput);
        _engine = std::make_unique<Engine>(
            *_executor, *_inputs, *_initialState, wrap(_computeOutput),
            std::move(aux), _matcher, _config);
        _engine->start();
    }

    /** Wait until all inputs are correctly processed. */
    void
    join()
    {
        if (!_engine)
            support::panic("StateDependence::join before start");
        _engine->join();
        _joined = true;
    }

    /**
     * Outputs in input order (owned by this object); empty until
     * join() returns, since workers fill them while the run is live.
     */
    OutputView
    outputs() const
    {
        return OutputView(_joined ? &_engine->outputs() : nullptr);
    }

    /** Engine counters; after join(). */
    const EngineStats &stats() const { return _engine->stats(); }

  private:
    std::vector<Input *> *_inputs;
    State *_initialState;
    ComputeOutputFn _computeOutput;
    ComputeOutputFn _auxiliaryOutput;
    typename Engine::MatchFn _matcher;
    SpecConfig _config;
    int _threads = 4;

    std::unique_ptr<exec::ThreadExecutor> _executor;
    std::unique_ptr<Engine> _engine;
    bool _joined = false;
};

} // namespace stats::sdi
