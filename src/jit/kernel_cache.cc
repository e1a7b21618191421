#include "jit/kernel_cache.h"

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace hetex::jit {

namespace fs = std::filesystem;

namespace {

constexpr char kDefaultCompilerCmd[] = "c++ -O3 -march=native -fPIC -shared";
// -march=native is best-effort: a compiler that rejects it (cross toolchains,
// exotic hosts) gets one retry with the portable flag set.
constexpr char kNoMarchCompilerCmd[] = "c++ -O3 -fPIC -shared";

uint64_t Fnv1a(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return in.good() || in.eof();
}

/// Writes via a unique temp file + atomic rename so concurrent processes
/// racing on the same kernel dir only ever observe complete files.
bool WriteFileAtomic(const std::string& path, const std::string& data) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out.good()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
  return !ec;
}

std::string TailOf(const std::string& text, size_t max_bytes = 512) {
  if (text.size() <= max_bytes) return text;
  return "..." + text.substr(text.size() - max_bytes);
}

}  // namespace

KernelCache::KernelCache(CodegenOptions options) : options_(std::move(options)) {
  if (options_.kernel_dir.empty()) {
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec) tmp = "/tmp";
    options_.kernel_dir = (tmp / "hetex-kernels").string();
  }
  if (options_.compiler_cmd.empty()) options_.compiler_cmd = kDefaultCompilerCmd;
  if (options_.compile_threads < 1) options_.compile_threads = 1;
  if (options_.async) {
    workers_.reserve(options_.compile_threads);
    for (int i = 0; i < options_.compile_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

KernelCache::~KernelCache() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Builds that never ran fail closed: their programs keep serving the
  // fallback tier, and nothing waits on a kernel that can no longer arrive.
  for (auto& [sig, chain] : entries_) {
    for (Entry& e : chain) {
      int expected = NativeKernel::kPending;
      if (e.kernel->state.compare_exchange_strong(expected,
                                                  NativeKernel::kFailed)) {
        e.kernel->error = "kernel cache shut down before compile";
      }
    }
  }
}

std::string KernelCache::Stem(uint64_t signature) const {
  return (fs::path(options_.kernel_dir) / ("hx_" + Hex16(signature))).string();
}

std::shared_ptr<NativeKernel> KernelCache::GetOrBuild(const GenerateResult& gen,
                                                      const std::string& label) {
  HETEX_CHECK(!gen.source.empty()) << "GetOrBuild on a fallback GenerateResult";
  std::shared_ptr<NativeKernel> kernel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
    std::vector<Entry>& chain = entries_[gen.signature];
    for (const Entry& e : chain) {
      if (e.source == gen.source) {
        ++counters_.in_process_hits;
        return e.kernel;
      }
    }
    kernel = std::make_shared<NativeKernel>();
    kernel->signature = gen.signature;
    kernel->label = label;
    kernel->join_slot_mask = gen.join_slot_mask;
    kernel->slot_layouts = gen.slot_layouts;
    chain.push_back(Entry{gen.source, kernel});
    if (options_.async) {
      queue_.emplace_back(
          [this, kernel, source = gen.source] { Build(kernel, source); });
      work_cv_.notify_one();
      return kernel;
    }
  }
  Build(kernel, gen.source);
  return kernel;
}

void KernelCache::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      if (inflight_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void KernelCache::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
}

KernelCache::Counters KernelCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void KernelCache::Build(const std::shared_ptr<NativeKernel>& kernel,
                        const std::string& source) {
  if (fault_ != nullptr && fault_->enabled()) {
    // Injected compile/load failure: identical consequence to a real compiler
    // failure — the program keeps its fallback tier, queries stay correct.
    Status st = fault_->OnKernelCompile(kernel->label);
    if (!st.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.compile_failures;
      }
      internal::CountCompileFailure();
      internal::CountCodegenFallback();
      HETEX_LOG(Warning) << "native compile failed for pipeline '"
                         << kernel->label << "': " << st.ToString()
                         << " (serving fallback tier)";
      kernel->error = st.ToString();
      kernel->state.store(NativeKernel::kFailed, std::memory_order_release);
      return;
    }
  }
  if (TryLoadFromDisk(kernel.get(), source)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.compiles;
  }
  if (!CompileToDisk(kernel.get(), source)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.compile_failures;
    }
    internal::CountCompileFailure();
    internal::CountCodegenFallback();
    HETEX_LOG(Warning) << "native compile failed for pipeline '"
                       << kernel->label << "': " << kernel->error
                       << " (serving fallback tier)";
    kernel->state.store(NativeKernel::kFailed, std::memory_order_release);
    return;
  }
  EvictIfNeeded(Stem(kernel->signature));
}

bool KernelCache::TryLoadFromDisk(NativeKernel* kernel,
                                  const std::string& source) {
  const std::string stem = Stem(kernel->signature);
  const std::string so_path = stem + ".so";
  std::error_code ec;
  const bool so_exists = fs::exists(so_path, ec) && !ec;
  if (!so_exists) return false;

  const auto reject = [&](const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.rejected_objects;
    }
    internal::CountRejectedObject();
    HETEX_LOG(Warning) << "kernel cache: rejecting " << so_path << " (" << why
                       << "); recompiling";
    return false;
  };

  std::string meta;
  if (!ReadFile(stem + ".meta", &meta)) return reject("missing meta sidecar");
  uint64_t abi = 0, source_hash = 0, source_size = 0, so_size = 0, so_hash = 0;
  {
    std::istringstream in(meta);
    std::string key;
    while (in >> key) {
      if (key == "abi") in >> abi;
      else if (key == "source_hash") in >> std::hex >> source_hash >> std::dec;
      else if (key == "source_size") in >> source_size;
      else if (key == "so_size") in >> so_size;
      else if (key == "so_hash") in >> std::hex >> so_hash >> std::dec;
      else in.ignore(4096, '\n');
    }
  }
  if (abi != kCodegenAbiVersion) return reject("ABI version mismatch");
  if (source_size != source.size() ||
      source_hash != Fnv1a(source.data(), source.size())) {
    return reject("source hash mismatch");
  }
  std::string object;
  if (!ReadFile(so_path, &object)) return reject("unreadable object");
  if (object.size() != so_size) return reject("object truncated");
  if (Fnv1a(object.data(), object.size()) != so_hash) {
    return reject("object hash mismatch");
  }

  std::string error;
  if (!LoadObject(kernel, so_path, &error)) return reject(error);
  kernel->origin = NativeKernel::Origin::kDisk;
  kernel->state.store(NativeKernel::kReady, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.disk_hits;
  }
  internal::CountDiskHit();
  return true;
}

bool KernelCache::CompileToDisk(NativeKernel* kernel,
                                const std::string& source) {
  const std::string stem = Stem(kernel->signature);
  const std::string cc_path = stem + ".cc";
  const std::string so_path = stem + ".so";
  const std::string log_path = stem + ".log";

  std::error_code ec;
  fs::create_directories(options_.kernel_dir, ec);
  if (ec) {
    kernel->error = "cannot create kernel dir " + options_.kernel_dir;
    return false;
  }
  if (!WriteFileAtomic(cc_path, source)) {
    kernel->error = "cannot write " + cc_path;
    return false;
  }

  const std::string so_tmp =
      so_path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const auto invoke = [&](const std::string& cmd_prefix) {
    const std::string cmd =
        cmd_prefix + " " + cc_path + " -o " + so_tmp + " 2> " + log_path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.compiler_invocations;
    }
    internal::CountCompilerInvocation();
    return std::system(cmd.c_str());
  };

  int rc = invoke(options_.compiler_cmd);
  if (rc != 0 && options_.compiler_cmd == kDefaultCompilerCmd) {
    rc = invoke(kNoMarchCompilerCmd);
  }
  if (rc != 0) {
    std::string log;
    ReadFile(log_path, &log);
    kernel->error = "compiler exited with status " + std::to_string(rc) +
                    (log.empty() ? "" : ": " + TailOf(log));
    fs::remove(so_tmp, ec);
    return false;
  }

  std::string object;
  if (!ReadFile(so_tmp, &object) || object.empty()) {
    kernel->error = "compiler produced no object";
    fs::remove(so_tmp, ec);
    return false;
  }
  fs::rename(so_tmp, so_path, ec);
  if (ec) {
    kernel->error = "cannot move object into place: " + ec.message();
    fs::remove(so_tmp, ec);
    return false;
  }

  std::ostringstream meta;
  meta << "abi " << kCodegenAbiVersion << "\n"
       << "source_hash " << std::hex << Fnv1a(source.data(), source.size())
       << std::dec << "\n"
       << "source_size " << source.size() << "\n"
       << "so_size " << object.size() << "\n"
       << "so_hash " << std::hex << Fnv1a(object.data(), object.size())
       << std::dec << "\n";
  if (!WriteFileAtomic(stem + ".meta", meta.str())) {
    kernel->error = "cannot write meta sidecar";
    return false;
  }

  std::string error;
  if (!LoadObject(kernel, so_path, &error)) {
    kernel->error = error;
    return false;
  }
  kernel->origin = NativeKernel::Origin::kCompiled;
  kernel->state.store(NativeKernel::kReady, std::memory_order_release);
  return true;
}

void KernelCache::EvictIfNeeded(const std::string& protect_stem) {
  if (options_.max_dir_bytes == 0) return;

  struct Triple {
    std::string stem;
    uint64_t bytes = 0;
    fs::file_time_type built_at = fs::file_time_type::min();
  };
  std::unordered_map<std::string, Triple> triples;
  uint64_t total = 0;
  std::error_code ec;
  fs::directory_iterator it(options_.kernel_dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const fs::path& p = entry.path();
    std::string stem = (p.parent_path() / p.stem()).string();
    const std::string name = p.filename().string();
    if (name.rfind("hx_", 0) != 0) continue;
    // In-flight temp files (hx_<sig>.so.tmp.<pid>) belong to a racing compile,
    // not to a finished triple; leave them alone.
    if (name.find(".tmp.") != std::string::npos) continue;
    const uint64_t bytes = entry.file_size(ec);
    if (ec) continue;
    Triple& t = triples[stem];
    t.stem = stem;
    t.bytes += bytes;
    total += bytes;
    if (p.extension() == ".so") t.built_at = entry.last_write_time(ec);
  }
  if (total <= options_.max_dir_bytes) return;

  std::vector<Triple> victims;
  victims.reserve(triples.size());
  for (auto& [stem, t] : triples) {
    if (stem != protect_stem) victims.push_back(std::move(t));
  }
  std::sort(victims.begin(), victims.end(),
            [](const Triple& a, const Triple& b) {
              return a.built_at < b.built_at;  // oldest build evicts first
            });
  for (const Triple& victim : victims) {
    if (total <= options_.max_dir_bytes) break;
    for (const char* ext : {".so", ".meta", ".cc", ".log"}) {
      fs::remove(victim.stem + ext, ec);
    }
    total -= victim.bytes < total ? victim.bytes : total;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.evictions;
    }
    HETEX_LOG(Info) << "kernel cache: evicted " << victim.stem
                    << ".* (dir over " << options_.max_dir_bytes << " bytes)";
  }
}

bool KernelCache::LoadObject(NativeKernel* kernel, const std::string& so_path,
                             std::string* error) {
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    *error = "dlopen failed: " + std::string(err != nullptr ? err : "unknown");
    return false;
  }
  const auto* abi = static_cast<const unsigned*>(dlsym(handle, "hx_abi_version"));
  if (abi == nullptr || *abi != kCodegenAbiVersion) {
    dlclose(handle);
    *error = "object exports no matching hx_abi_version";
    return false;
  }
  void* fn = dlsym(handle, "hx_kernel");
  if (fn == nullptr) {
    dlclose(handle);
    *error = "object exports no hx_kernel entry point";
    return false;
  }
  kernel->dl_handle = handle;
  kernel->fn = reinterpret_cast<NativeKernelFn>(fn);
  return true;
}

}  // namespace hetex::jit
