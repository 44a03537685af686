// Replay program shared by the fuzz harnesses: links against one harness's
// LLVMFuzzerTestOneInput and runs every corpus file through it once, so a
// checked-in corpus re-runs under any compiler (gcc has no libFuzzer) and
// under the sanitizer CI legs. Each argument is a corpus file or a
// directory of them. Exits non-zero only if an input cannot be read; a
// decode-surface bug shows up as a crash/sanitizer abort, which ctest
// reports as a failure.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> files;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path p(argv[i]);
    std::error_code ec;
    if (std::filesystem::is_directory(p, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
    } else {
      files.push_back(p);
    }
  }
  if (files.empty()) {
    std::cerr << "usage: " << (argc > 0 ? argv[0] : "fuzz_replay")
              << " <corpus-file-or-dir>...\n";
    return 1;
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << f << "\n";
      return 1;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
    std::cout << "replayed " << f.filename().string() << " (" << bytes.size()
              << " bytes)\n";
  }
  std::cout << files.size() << " input(s), no crashes\n";
  return 0;
}
